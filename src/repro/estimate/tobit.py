"""Tobit (censored) regression and the TRIP estimator.

TRIP [Fan et al., CLUSTER'17] observes that training data for runtime
prediction is *right-censored*: a job killed at its wall limit reveals
only that its true runtime exceeded the limit.  Tobit regression fits a
linear Gaussian latent model by maximum likelihood with exactly that
censoring structure::

    y*_i = x_i·w + b + ε,   ε ~ N(0, σ²)
    y_i  = min(y*_i, c_i),  censored iff y*_i ≥ c_i

Uncensored points contribute the normal density, censored points the
upper-tail survival.  Optimised with L-BFGS over (w, b, log σ).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import EstimationError
from repro.estimate.features import FeatureEncoder
from repro.sched.job import Job


class TobitRegressor:
    """Linear regression under right-censoring, fitted by MLE."""

    def __init__(self, max_iter: int = 200) -> None:
        if max_iter < 1:
            raise EstimationError("max_iter must be >= 1")
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.sigma_: float = 1.0

    def fit(self, X: np.ndarray, y: np.ndarray, censored: np.ndarray | None = None) -> "TobitRegressor":
        """Fit on observations ``y`` with a boolean ``censored`` mask
        (``True`` where ``y`` is a lower bound on the latent value)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise EstimationError("fit needs matching non-empty X, y")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise EstimationError("fit needs finite X, y (found NaN or inf)")
        if censored is None:
            censored = np.zeros(len(y), dtype=bool)
        censored = np.asarray(censored, dtype=bool).ravel()
        if censored.shape != y.shape:
            raise EstimationError("censored mask must match y")
        # imported here, not at module level, so that a run that fits no
        # model never loads scipy
        from scipy.optimize import minimize
        from scipy.stats import norm

        n, d = X.shape
        # OLS warm start.
        Xb = np.column_stack([X, np.ones(n)])
        w0, *_ = np.linalg.lstsq(Xb, y, rcond=None)
        resid = y - Xb @ w0
        sigma0 = max(float(resid.std()), 1e-3)
        theta0 = np.concatenate([w0, [np.log(sigma0)]])
        obs = ~censored

        def nll(theta: np.ndarray) -> float:
            w, b, log_s = theta[:d], theta[d], theta[d + 1]
            s = np.exp(log_s)
            mu = X @ w + b
            ll = 0.0
            if obs.any():
                ll += norm.logpdf(y[obs], loc=mu[obs], scale=s).sum()
            if censored.any():
                ll += norm.logsf(y[censored], loc=mu[censored], scale=s).sum()
            return -ll

        res = minimize(nll, theta0, method="L-BFGS-B", options={"maxiter": self.max_iter})
        theta = res.x
        self.coef_ = theta[:d]
        self.intercept_ = float(theta[d])
        self.sigma_ = float(np.exp(theta[d + 1]))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise EstimationError("TobitRegressor not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ self.coef_ + self.intercept_


class TripEstimator:
    """TRIP: Tobit regression over a sliding window, online protocol.

    Censoring comes from the wall limit: jobs whose believed limit
    truncated them are marked censored at ``limit_s``.
    """

    name = "trip"

    def __init__(self, window: int = 700, refit_every: int = 50, min_history: int = 30) -> None:
        self.window = window
        self.refit_every = refit_every
        self.min_history = min_history
        self._history: deque[Job] = deque(maxlen=window)
        self._since_fit = 0
        self._model: TobitRegressor | None = None
        self._encoder: FeatureEncoder | None = None

    def observe(self, job: Job, now: float) -> None:
        self._history.append(job)
        self._since_fit += 1
        if len(self._history) >= self.min_history and (
            self._model is None or self._since_fit >= self.refit_every
        ):
            self._refit()

    def _refit(self) -> None:
        jobs = list(self._history)
        encoder = FeatureEncoder().fit(jobs)
        X = encoder.transform(jobs)
        # Observed runtime is truncated at the wall limit; mark those
        # rows censored so the MLE treats them as lower bounds.
        observed = np.array([min(j.runtime_s, j.limit_s) for j in jobs])
        censored = np.array([j.runtime_s >= j.limit_s for j in jobs])
        y = np.log1p(observed)
        model = TobitRegressor()
        model.fit(X, y, censored=censored)
        self._model = model
        self._encoder = encoder
        self._since_fit = 0

    def estimate(self, job: Job, now: float) -> float | None:
        if self._model is None or self._encoder is None:
            return None
        x = self._encoder.transform_one(job)
        pred = float(self._model.predict(x[None, :])[0])
        # The latent model is Gaussian in log space; report the implied
        # lognormal mean (this is also TRIP's anti-underestimation lever).
        return max(float(np.expm1(pred + 0.5 * self._model.sigma_**2)), 1.0)
