"""Tests for the from-scratch regressors: SVR, forest, ridge, Tobit."""

import math

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimate import SVR, BayesianRidge, RandomForestRegressor, TobitRegressor
from repro.estimate.forest import RegressionTree


def linear_data(n=150, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 1.0 + noise * rng.normal(size=n)
    return X, y


def non_finite_data(where, bad):
    """``linear_data`` with one ``bad`` value planted in X or y."""
    X, y = linear_data(n=30)
    (X[4] if where == "X" else y)[1] = bad
    return X, y


class TestSVR:
    def test_fits_linear_function_rbf(self):
        X, y = linear_data()
        m = SVR().fit(X, y)
        pred = m.predict(X)
        assert np.corrcoef(pred, y)[0, 1] > 0.98

    def test_linear_kernel(self):
        X, y = linear_data()
        m = SVR(kernel="linear").fit(X, y)
        assert np.corrcoef(m.predict(X), y)[0, 1] > 0.98

    def test_composite_kernel(self):
        X, y = linear_data()
        m = SVR(kernel="rbf+linear").fit(X, y)
        assert np.corrcoef(m.predict(X), y)[0, 1] > 0.98

    def test_far_field_reverts_to_mean(self):
        X, y = linear_data()
        m = SVR().fit(X, y)
        far = m.predict(np.full((1, 4), 100.0))[0]
        assert abs(far - y.mean()) < 2.0

    def test_constant_target(self):
        X, _ = linear_data(n=40)
        m = SVR().fit(X, np.full(40, 7.0))
        np.testing.assert_allclose(m.predict(X), 7.0, atol=0.1)

    def test_predict_one(self):
        X, y = linear_data(n=50)
        m = SVR().fit(X, y)
        assert m.predict_one(X[0]) == pytest.approx(m.predict(X[:1])[0])

    def test_unfitted_predict_rejected(self):
        with pytest.raises(EstimationError):
            SVR().predict(np.ones((1, 3)))

    def test_invalid_params(self):
        with pytest.raises(EstimationError):
            SVR(C=0)
        with pytest.raises(EstimationError):
            SVR(kernel="poly")
        with pytest.raises(EstimationError):
            SVR().fit(np.ones((0, 3)), np.ones(0))

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(EstimationError):
            SVR(max_iter=max_iter)

    # a NaN cap failed every check, so the fit ran to the evaluation cap
    @pytest.mark.parametrize("max_iter", [math.nan, 2.5, 300.0, "300"])
    def test_non_integer_max_iter_rejected(self, max_iter):
        with pytest.raises(EstimationError, match="max_iter"):
            SVR(max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self):
        assert SVR(max_iter=np.int64(7)).max_iter == 7

    @pytest.mark.parametrize("param, value", [
        ("C", -1.0), ("C", math.nan), ("C", math.inf),
        ("epsilon", -0.1), ("epsilon", math.nan), ("epsilon", math.inf),
        ("gamma", 0.0), ("gamma", -1.0), ("gamma", math.nan), ("gamma", math.inf),
        ("bias_term", math.nan), ("bias_term", math.inf), ("bias_term", -math.inf),
    ])
    def test_out_of_range_param_rejected(self, param, value):
        with pytest.raises(EstimationError, match=param):
            SVR(**{param: value})

    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_data_rejected(self, where, bad):
        X, y = non_finite_data(where, bad)
        with pytest.raises(EstimationError, match="finite"):
            SVR().fit(X, y)


class TestRegressionTree:
    def test_step_function(self):
        X = np.linspace(0, 1, 100)[:, None]
        y = (X.ravel() > 0.5).astype(float) * 10
        tree = RegressionTree(max_depth=3).fit(X, y)
        pred = tree.predict(X)
        assert abs(pred[10] - 0.0) < 1.0
        assert abs(pred[90] - 10.0) < 1.0

    def test_depth_limit(self):
        X, y = linear_data(n=100)
        shallow = RegressionTree(max_depth=1).fit(X, y).predict(X)
        deep = RegressionTree(max_depth=8).fit(X, y).predict(X)
        assert ((deep - y) ** 2).mean() < ((shallow - y) ** 2).mean()

    def test_invalid_params(self):
        with pytest.raises(EstimationError):
            RegressionTree(max_depth=0)


class TestRandomForest:
    def test_fits_nonlinear_function(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, size=(300, 2))
        y = np.sin(X[:, 0]) * 3 + X[:, 1] ** 2
        m = RandomForestRegressor(n_estimators=20, rng=rng).fit(X, y)
        pred = m.predict(X)
        assert np.corrcoef(pred, y)[0, 1] > 0.9

    def test_deterministic_given_rng(self):
        X, y = linear_data(n=80)
        a = RandomForestRegressor(10, rng=np.random.default_rng(3)).fit(X, y).predict(X)
        b = RandomForestRegressor(10, rng=np.random.default_rng(3)).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_unfitted_rejected(self):
        with pytest.raises(EstimationError):
            RandomForestRegressor().predict(np.ones((1, 2)))

    def test_invalid(self):
        with pytest.raises(EstimationError):
            RandomForestRegressor(n_estimators=0)


class TestBayesianRidge:
    def test_recovers_coefficients(self):
        X, y = linear_data(n=300, noise=0.1)
        m = BayesianRidge().fit(X, y)
        np.testing.assert_allclose(m.coef_[:2], [3.0, -2.0], atol=0.1)
        assert m.intercept_ == pytest.approx(1.0, abs=0.1)

    def test_shrinks_on_noise(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 10))
        y = rng.normal(size=100)  # pure noise
        m = BayesianRidge().fit(X, y)
        assert np.abs(m.coef_).max() < 0.5

    def test_unfitted_rejected(self):
        with pytest.raises(EstimationError):
            BayesianRidge().predict(np.ones((1, 2)))


class TestTobit:
    def test_matches_ols_without_censoring(self):
        X, y = linear_data(n=200, noise=0.1)
        m = TobitRegressor().fit(X, y)
        np.testing.assert_allclose(m.coef_[:2], [3.0, -2.0], atol=0.15)

    def test_censoring_correction(self):
        # True model y = 2x; censor everything above 1.0.  A naive OLS on
        # censored y underestimates the slope; Tobit should recover it.
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(400, 1))
        y_true = 2.0 * X.ravel() + 0.1 * rng.normal(size=400)
        c = 1.0
        y_obs = np.minimum(y_true, c)
        censored = y_true >= c
        naive = np.polyfit(X.ravel(), y_obs, 1)[0]
        m = TobitRegressor().fit(X, y_obs, censored=censored)
        assert abs(m.coef_[0] - 2.0) < abs(naive - 2.0)

    def test_bad_mask_rejected(self):
        X, y = linear_data(n=20)
        with pytest.raises(EstimationError):
            TobitRegressor().fit(X, y, censored=np.ones(5, dtype=bool))

    def test_unfitted_rejected(self):
        with pytest.raises(EstimationError):
            TobitRegressor().predict(np.ones((1, 2)))

    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_data_rejected(self, where, bad, capfd):
        X, y = non_finite_data(where, bad)
        with pytest.raises(EstimationError, match="finite"):
            TobitRegressor().fit(X, y)
        assert capfd.readouterr().err == ""  # no LAPACK complaint

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(EstimationError):
            TobitRegressor(max_iter=max_iter)
