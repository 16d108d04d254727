"""ε-insensitive support vector regression, from scratch.

Solves the standard SVR dual with the bias absorbed into the kernel
(adding a constant term to K), which removes the equality constraint
and leaves a smooth box-constrained QP over (α, α*)::

    min_{α,α* ∈ [0,C]}  ½ (α-α*)ᵀ K̃ (α-α*) - yᵀ(α-α*) + ε·1ᵀ(α+α*)

solved with L-BFGS-B.  ``fit`` drives scipy's reverse-communication
kernel (``scipy.optimize._lbfgsb.setulb``) itself, with the settings and
the stopping rule of ``scipy.optimize.minimize(method="L-BFGS-B")``, so
its dual coefficients are bit-for-bit the ones ``minimize`` returns.
What it saves is ``minimize``'s per-call set-up and per-evaluation
wrapping, which on the estimator's problems (2n ≤ 140 variables) cost
more than the objective itself.  The loop allocates its work vectors
(β, Kβ, Kβ - y) once per fit and evaluates the objective into them
with ``out=`` ufuncs and ``np.add.reduce``, each expression in
``minimize``'s order.  ``tests/estimate/test_svr_driver.py`` holds the
two equal.

``fit`` keeps the training predictions ``K β + ȳ`` from the kernel the
solver used (``train_pred_``): ``predict`` on the training rows would
rebuild that same n×n kernel.  ``predict_one``, the estimator's submit
path, builds its one kernel row inline with ``_kernel``'s operations
in ``_kernel``'s order.  ``tests/estimate/test_svr_twin.py`` twins both
against ``predict``.

The kernel is loaded on its own, at a process's first fit: ``_setulb``
imports the extension module from scipy's ``optimize`` directory
without running that package's ``__init__``, which would load all of
``scipy.optimize`` (about 50 MB of resident memory) to call one C
function.  It registers the module under its canonical name, so a later
``import scipy.optimize`` shares it.

Predictions are ``f(x) = Σ (αᵢ-α*ᵢ) K̃(xᵢ, x)``.  RBF and linear
kernels; per-cluster training sets in the paper's framework are a few
hundred samples, well within dense-kernel territory.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
import typing as t

import numpy as np

from repro.errors import EstimationError

# ``minimize(method="L-BFGS-B")``'s defaults: correction pairs kept,
# ``ftol`` over machine epsilon, ``gtol``, line-search steps and the
# evaluation cap.
_M = 10
_FACTR = 2.220446049250313e-09 / np.finfo(float).eps
_PGTOL = 1e-5
_MAXLS = 20
_MAXFUN = 15_000
# setulb's task codes: evaluate f and g at x / a new iterate is ready /
# stop (the reason in task[1])
_FG, _NEW_X, _STOP = 3, 1, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504
_LBFGSB = "scipy.optimize._lbfgsb"


def _setulb() -> t.Callable[..., None]:
    """L-BFGS-B's ``setulb``, from ``scipy.optimize._lbfgsb`` loaded alone:
    the entry in ``sys.modules`` if there is one, else the extension
    found in scipy's ``optimize`` directory, imported without its
    package and registered under its canonical name."""
    module = sys.modules.get(_LBFGSB)
    if module is None:
        import scipy

        spec = importlib.machinery.PathFinder.find_spec(
            _LBFGSB, [os.path.join(p, "optimize") for p in scipy.__path__]
        )
        if spec is None or spec.loader is None:
            raise ImportError(f"{_LBFGSB} not found: the SVR needs scipy>=1.15")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_LBFGSB] = module
    return module.setulb


def _rbf(
    X: np.ndarray, Y: np.ndarray, gamma: float, y_sq: np.ndarray | None = None
) -> np.ndarray:
    if y_sq is None:
        y_sq = (Y * Y).sum(axis=1)
    d = (X * X).sum(axis=1)[:, None] - 2.0 * X @ Y.T + y_sq
    return np.exp(-gamma * np.maximum(d, 0.0))


def _solve_dual(
    K: np.ndarray, y: np.ndarray, eps: float, C: float, max_iter: int
) -> np.ndarray:
    """β = α - α* of the dual's minimiser over [0, C]²ⁿ, found by L-BFGS-B
    exactly as ``minimize(method="L-BFGS-B", options={"maxiter": max_iter})``
    finds it: same kernel, settings, evaluations and stopping rule."""
    setulb = _setulb()
    n = len(y)
    m = 2 * n
    theta = np.zeros(m)  # (α, α*), updated in place by setulb
    g = np.zeros(m)
    a, a_star = theta[:n], theta[n:]
    g_a, g_star = g[:n], g[n:]
    lower = np.zeros(m)
    upper = np.full(m, C)
    nbd = np.full(m, 2, dtype=np.int32)  # 2: both bounds
    wa = np.zeros(2 * _M * m + 5 * m + 11 * _M * _M + 8 * _M)
    iwa = np.zeros(3 * m, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    # the objective's work buffers, written in place at every evaluation
    beta = np.empty(n)
    half_beta = np.empty(n)
    Kb = np.empty(n)
    r = np.empty(n)
    f = 0.0
    # minimize evaluates x0 once before the loop and answers setulb's
    # first request from that; its cap counts it once
    nfev = 0
    iters = 0
    while True:
        setulb(_M, theta, lower, upper, nbd, f, g, _FACTR, _PGTOL, wa, iwa,
               task, lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == _FG:
            nfev += 1
            # f = 0.5 * beta @ Kb - y @ beta + eps * (a.sum() + a_star.sum()),
            # the same operations in the same order, into the buffers
            np.subtract(a, a_star, out=beta)
            np.matmul(K, beta, out=Kb)
            np.multiply(0.5, beta, out=half_beta)
            f = half_beta @ Kb - y @ beta + eps * (np.add.reduce(a) + np.add.reduce(a_star))
            np.subtract(Kb, y, out=r)
            np.add(r, eps, out=g_a)
            np.subtract(eps, r, out=g_star)
        elif task[0] == _NEW_X:
            iters += 1
            if iters >= max_iter:
                task[0], task[1] = _STOP, _STOP_MAXITER
            elif nfev > _MAXFUN:
                task[0], task[1] = _STOP, _STOP_MAXFUN
        else:
            break
    return theta[:n] - theta[n:]


class SVR:
    """ε-SVR with RBF (default) or linear kernel.

    Args:
        C: box constraint (regularisation inverse).
        epsilon: width of the insensitive tube.
        kernel: ``"rbf"`` or ``"linear"``.
        gamma: RBF width; ``None`` uses 1 / (n_features · var(X)), the
            'scale' heuristic.
        bias_term: constant added to the kernel to absorb the intercept.
    """

    def __init__(
        self,
        C: float = 10.0,
        epsilon: float = 0.05,
        kernel: str = "rbf",
        gamma: float | None = None,
        bias_term: float = 1.0,
        max_iter: int = 300,
    ) -> None:
        # written so that NaN fails every check
        if not 0 < C < math.inf:
            raise EstimationError(f"C must be positive and finite, got {C!r}")
        if not 0 <= epsilon < math.inf:
            raise EstimationError(f"epsilon must be non-negative and finite, got {epsilon!r}")
        if gamma is not None and not 0 < gamma < math.inf:
            raise EstimationError(f"gamma must be None or positive and finite, got {gamma!r}")
        if not math.isfinite(bias_term):
            raise EstimationError(f"bias_term must be finite, got {bias_term!r}")
        if kernel not in ("rbf", "linear", "rbf+linear"):
            raise EstimationError(f"unknown kernel {kernel!r}")
        try:
            max_iter = operator.index(max_iter)
        except TypeError:
            raise EstimationError(f"max_iter must be an integer, got {max_iter!r}") from None
        if max_iter < 1:
            raise EstimationError("max_iter must be >= 1")
        self.C = C
        self.epsilon = epsilon
        self.kernel = kernel
        self.gamma = gamma
        self.bias_term = bias_term
        self.max_iter = max_iter
        self._X: np.ndarray | None = None
        self._X_sq: np.ndarray | None = None
        self._beta: np.ndarray | None = None
        self._gamma_eff: float = 1.0
        self._y_mean: float = 0.0
        #: ``predict`` of the training rows, from the kernel the fit solved
        self.train_pred_: np.ndarray | None = None

    # -- kernels ---------------------------------------------------------
    def _kernel(
        self, X: np.ndarray, Y: np.ndarray, y_sq: np.ndarray | None = None
    ) -> np.ndarray:
        if self.kernel == "rbf":
            K = _rbf(X, Y, self._gamma_eff, y_sq)
        elif self.kernel == "linear":
            K = X @ Y.T / max(X.shape[1], 1)
        else:  # rbf+linear: local memory plus global (scaling) trends
            K = _rbf(X, Y, self._gamma_eff, y_sq) + 0.3 * (X @ Y.T) / max(X.shape[1], 1)
        return K + self.bias_term

    # -- fit ------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "SVR":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise EstimationError("fit needs matching non-empty X, y")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise EstimationError("fit needs finite X, y (found NaN or inf)")
        if self.gamma is None:
            var = X.var()
            self._gamma_eff = 1.0 / (X.shape[1] * var) if var > 1e-12 else 1.0
        else:
            self._gamma_eff = self.gamma
        # Centre the target: with the bias absorbed into the kernel, an
        # uncentred target forces a large constant component Σβ whose
        # far-field value is unconstrained; centring makes predictions
        # far from the data revert to the training mean instead.
        self._y_mean = float(y.mean())
        y = y - self._y_mean
        K = self._kernel(X, X)
        self._beta = _solve_dual(K, y, self.epsilon, float(self.C), self.max_iter)
        # predict(X)'s kernel is K itself (the same rows, norms and
        # products), so the training predictions cost one product
        self.train_pred_ = K @ self._beta + self._y_mean
        self._X = X
        # Support-vector row norms, reused by every prediction — the
        # submit-path predict_one is the estimator's hot loop.
        self._X_sq = (X * X).sum(axis=1)
        return self

    # -- predict ------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._beta is None or self._X is None:
            raise EstimationError("SVR not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._kernel(X, self._X, self._X_sq) @ self._beta + self._y_mean

    def predict_one(self, x: np.ndarray) -> float:
        """``predict`` of one float feature vector (the estimator's submit
        path), without ``predict``'s input coercion: ``_kernel``'s
        operations on one row, in its order, with no dispatch."""
        if self._beta is None:
            raise EstimationError("SVR not fitted")
        XT = self._X.T
        if self.kernel == "linear":
            k = x @ XT / max(x.shape[0], 1)
        else:
            d = np.add.reduce(x * x) - 2.0 * x @ XT + self._X_sq
            k = np.exp(-self._gamma_eff * np.maximum(d, 0.0))
            if self.kernel == "rbf+linear":
                k = k + 0.3 * (x @ XT) / max(x.shape[0], 1)
        return float((k + self.bias_term) @ self._beta + self._y_mean)
