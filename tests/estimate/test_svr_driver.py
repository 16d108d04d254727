"""``SVR.fit`` drives L-BFGS-B's kernel itself; its dual coefficients must
be bit-for-bit the ones ``scipy.optimize.minimize(method="L-BFGS-B")``
returns on the same objective.

``SVR.fit`` calls scipy's private ``_lbfgsb.setulb``: a scipy release
that changes that kernel's arguments, task codes or defaults fails here
before it moves a report digest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from repro.estimate import SVR

KERNELS = ["rbf", "linear", "rbf+linear"]


def minimize_result(m: SVR, X, y):
    """``minimize``'s result on the dual ``m.fit(X, y)`` solved (``m`` is
    fitted, so its kernel width is set)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = len(y)
    y = y - float(y.mean())
    K = m._kernel(X, X)
    eps = m.epsilon

    def objective(theta):
        a, a_star = theta[:n], theta[n:]
        beta = a - a_star
        Kb = K @ beta
        val = 0.5 * beta @ Kb - y @ beta + eps * (a.sum() + a_star.sum())
        grad = np.concatenate([Kb - y + eps, -Kb + y + eps])
        return val, grad

    return minimize(
        objective,
        np.zeros(2 * n),
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, m.C)] * (2 * n),
        options={"maxiter": m.max_iter},
    )


def assert_same_beta(X, y, **kwargs):
    m = SVR(**kwargs).fit(X, y)
    res = minimize_result(m, X, y)
    n = len(y)
    assert np.array_equal(m._beta, res.x[:n] - res.x[n:])
    return res


def cluster_problem(n, seed, d=13):
    """An estimator-shaped problem: ``d`` standardised features, log runtimes."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.log1p(rng.lognormal(7.0, 1.5, size=n))
    return X, y


class TestSeeded:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n", [3, 8, 25, 70])
    def test_estimator_shaped(self, kernel, n):
        X, y = cluster_problem(n, seed=n)
        res = assert_same_beta(X, y, kernel=kernel, gamma=10.0 / X.shape[1])
        assert res.status == 0  # converged well inside max_iter

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_single_sample(self, kernel):
        X, y = cluster_problem(1, seed=1)
        assert_same_beta(X, y, kernel=kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_duplicate_rows(self, kernel):
        X, y = cluster_problem(6, seed=2)
        X = np.vstack([X, X, X[:2]])
        y = np.concatenate([y, y + 0.3, y[:2]])
        assert_same_beta(X, y, kernel=kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_constant_target(self, kernel):
        X, _ = cluster_problem(12, seed=3)
        assert_same_beta(X, np.full(12, 4.2), kernel=kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_iteration_cap(self, kernel, max_iter):
        X, y = cluster_problem(40, seed=4)
        res = assert_same_beta(X, y, kernel=kernel, max_iter=max_iter)
        assert res.nit == max_iter and res.status == 1  # the cap stopped it

    def test_tight_box_and_zero_tube(self):
        X, y = cluster_problem(30, seed=5)
        assert_same_beta(X, 10.0 * y, C=0.25, epsilon=0.0)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 5))
    values = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    rows = draw(arrays(float, (draw(st.integers(1, n)), d), elements=values))
    # draw rows with repetition, so duplicates are common
    X = rows[draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))]
    y = draw(arrays(float, n, elements=st.floats(-10.0, 10.0, allow_nan=False)))
    kwargs = dict(
        kernel=draw(st.sampled_from(KERNELS)),
        C=draw(st.sampled_from([0.5, 10.0, 100.0])),
        epsilon=draw(st.sampled_from([0.0, 0.05, 0.5])),
        gamma=draw(st.sampled_from([None, 0.1, 2.0])),
        max_iter=draw(st.sampled_from([1, 2, 7, 300])),
    )
    return X, y, kwargs


class TestProperty:
    @settings(max_examples=150, deadline=None)
    @given(problems())
    def test_beta_equals_minimize(self, problem):
        X, y, kwargs = problem
        assert_same_beta(X, y, **kwargs)
