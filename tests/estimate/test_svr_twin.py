"""One kernel per fit and the inline kernel row against ``predict``.

``SVR.fit`` keeps the training predictions it computes from the kernel
the solver used (``train_pred_``), and ``predict_one`` builds one
kernel row inline; both are twinned against ``predict`` for every
kernel, with ``array_equal``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.estimate import SVR

KERNELS = ["rbf", "linear", "rbf+linear"]


def cluster_problem(n, seed, d=13):
    """An estimator-shaped problem: ``d`` standardised features, log runtimes."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.log1p(rng.lognormal(7.0, 1.5, size=n))
    return X, y


def assert_twins(m, X, queries):
    assert np.array_equal(m.train_pred_, m.predict(X))
    for x in queries:
        assert m.predict_one(x) == m.predict(x[None])[0]


@st.composite
def problems(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 13))
    values = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    rows = draw(arrays(float, (draw(st.integers(1, n)), d), elements=values))
    X = rows[draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))]
    y = draw(arrays(float, n, elements=st.floats(-10.0, 10.0, allow_nan=False)))
    queries = draw(arrays(float, (3, d), elements=values))
    kwargs = dict(
        kernel=draw(st.sampled_from(KERNELS)),
        gamma=draw(st.sampled_from([None, 0.1, 10.0 / 13])),
        bias_term=draw(st.sampled_from([0.0, 1.0, 2.5])),
    )
    return X, y, queries, kwargs


class TestSeeded:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("n", [1, 3, 25, 70, 150])
    def test_estimator_shaped(self, kernel, n):
        X, y = cluster_problem(n, seed=n)
        m = SVR(kernel=kernel, gamma=10.0 / X.shape[1]).fit(X, y)
        queries = np.random.default_rng(n).normal(size=(5, X.shape[1]))
        assert_twins(m, X, list(queries) + list(X[:3]))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_read_only_query(self, kernel):
        """The estimator passes ``transform_one``'s read-only vectors."""
        X, y = cluster_problem(20, seed=7)
        m = SVR(kernel=kernel).fit(X, y)
        x = X[4].copy()
        x.setflags(write=False)
        assert_twins(m, X, [x])


class TestProperty:
    @settings(max_examples=150, deadline=None)
    @given(problems())
    def test_predictions_equal_predict(self, problem):
        X, y, queries, kwargs = problem
        assert_twins(SVR(**kwargs).fit(X, y), X, list(queries) + list(X[:2]))
