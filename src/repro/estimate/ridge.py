"""Bayesian ridge regression (evidence approximation), from scratch.

One third of IRPA's ensemble.  The classic MacKay iterative scheme:
alternate between the posterior mean/covariance of the weights and
point estimates of the noise precision (α) and weight precision (λ)
until the effective number of parameters stabilises.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError


class BayesianRidge:
    """Linear regression with automatic ridge strength.

    Args:
        max_iter: evidence-maximisation iterations.
        tol: convergence threshold on the weight change.
    """

    def __init__(self, max_iter: int = 100, tol: float = 1e-6) -> None:
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.alpha_: float = 1.0  # noise precision
        self.lambda_: float = 1.0  # weight precision

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BayesianRidge":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise EstimationError("fit needs matching non-empty X, y")
        # Centre so the intercept drops out of the evidence iterations.
        x_mean = X.mean(axis=0)
        y_mean = y.mean()
        Xc = X - x_mean
        yc = y - y_mean
        n, d = Xc.shape
        XtX = Xc.T @ Xc
        Xty = Xc.T @ yc
        eigvals = np.linalg.eigvalsh(XtX)
        alpha, lam = 1.0, 1.0
        w = np.zeros(d)
        for _ in range(self.max_iter):
            A = alpha * XtX + lam * np.eye(d)
            w_new = alpha * np.linalg.solve(A, Xty)
            gamma = float((alpha * eigvals / (alpha * eigvals + lam)).sum())
            resid = yc - Xc @ w_new
            rss = float(resid @ resid)
            lam = gamma / max(float(w_new @ w_new), 1e-12)
            alpha = max(n - gamma, 1e-12) / max(rss, 1e-12)
            if np.linalg.norm(w_new - w) < self.tol * max(1.0, np.linalg.norm(w_new)):
                w = w_new
                break
            w = w_new
        self.coef_ = w
        self.intercept_ = y_mean - float(x_mean @ w)
        self.alpha_ = alpha
        self.lambda_ = lam
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise EstimationError("BayesianRidge not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ self.coef_ + self.intercept_
