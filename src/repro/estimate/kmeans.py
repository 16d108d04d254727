"""K-means++ clustering and the elbow method (Section V-A).

From-scratch implementation on numpy: careful seeding per Arthur &
Vassilvitskii (k-means++), Lloyd iterations with empty-cluster
re-seeding, and the classical elbow criterion the paper uses to pick
K (the knee of the inertia curve via maximum distance to the chord).
"""

from __future__ import annotations

import math
import operator
import typing as t

import numpy as np

from repro.errors import EstimationError


def _row_sq_norms(X: np.ndarray) -> np.ndarray:
    """x.x of every row, as a column (the first term of
    ``_pairwise_sq_dist``, which a fit computes once)."""
    return (X * X).sum(axis=1)[:, None]


def _pairwise_sq_dist(
    X: np.ndarray, C: np.ndarray, x_sq: np.ndarray | None = None
) -> np.ndarray:
    """Squared euclidean distances, shape (n_samples, n_centers);
    ``x_sq`` is ``_row_sq_norms(X)`` when the caller has it."""
    if x_sq is None:
        x_sq = _row_sq_norms(X)
    # (x - c)^2 = x.x - 2 x.c + c.c ; clip the tiny negatives from fp error
    d = x_sq - 2.0 * X @ C.T + (C * C).sum(axis=1)[None, :]
    return np.maximum(d, 0.0)


def _weighted_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(len(probs), p=probs)``: the search ``choice`` itself
    runs, one ``rng.random()`` draw into the normalised CDF, without its
    argument checks."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _n_distinct_rows(X: np.ndarray) -> int:
    """``np.unique(X, axis=0).shape[0]`` for a finite float X: each row
    compared as one block of bytes, once ``+ 0.0`` has turned every -0.0
    into 0.0 (the only equal floats with different bytes)."""
    n, d = X.shape
    if d == 0:
        return min(n, 1)
    rows = np.ascontiguousarray(X + 0.0).view(np.dtype((np.void, X.itemsize * d)))
    return len(np.unique(rows))


class KMeans:
    """K-means with k-means++ initialisation.

    Args:
        n_clusters: K.
        max_iter: Lloyd iteration cap.
        tol: relative centre-shift convergence threshold.
        rng: numpy Generator (deterministic experiments pass a seeded one).
    """

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 100,
        tol: float = 1e-6,
        rng: np.random.Generator | None = None,
    ) -> None:
        try:
            n_clusters = operator.index(n_clusters)
        except TypeError:
            raise EstimationError(f"n_clusters must be an integer, got {n_clusters!r}") from None
        if n_clusters < 1:
            raise EstimationError("n_clusters must be >= 1")
        if not 0 <= tol < math.inf:  # written so that NaN fails
            raise EstimationError(f"tol must be non-negative and finite, got {tol!r}")
        #: the requested K; every fit clamps from it
        self._k = n_clusters
        #: K: the requested one until a fit, then the one fitted
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.rng = rng or np.random.default_rng(0)
        self.centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float = float("nan")
        self.n_iter_: int = 0

    # -- k-means++ seeding -------------------------------------------------
    def _init_centers(self, X: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        k = self.n_clusters
        centers = np.empty((k, X.shape[1]))
        first = int(self.rng.integers(n))
        centers[0] = X[first]
        closest = _pairwise_sq_dist(X, centers[:1], x_sq).ravel()
        for i in range(1, k):
            total = closest.sum()
            if total <= 0:  # all points coincide with chosen centers
                idx = int(self.rng.integers(n))
            else:
                idx = _weighted_index(closest / total, self.rng)
            centers[i] = X[idx]
            closest = np.minimum(closest, _pairwise_sq_dist(X, centers[i : i + 1], x_sq).ravel())
        return centers

    # -- Lloyd ------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "KMeans":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise EstimationError("fit needs a non-empty 2-D array")
        if not np.isfinite(X).all():
            raise EstimationError("fit needs finite X (found NaN or inf)")
        # Clamp K to the number of *distinct* rows, not just the number of
        # rows: with duplicates (common for short runtime-history windows
        # where many jobs share a wall time) K > n_distinct leaves clusters
        # that can never own a point, and the empty-cluster re-seed loop
        # thrashes without converging.
        k = min(self._k, _n_distinct_rows(X))
        self.n_clusters = k
        x_sq = _row_sq_norms(X)
        centers = self._init_centers(X, x_sq)
        for it in range(self.max_iter):
            d = _pairwise_sq_dist(X, centers, x_sq)
            labels = d.argmin(axis=1)
            new_centers = np.empty_like(centers)
            for j in range(k):
                members = X[labels == j]
                if len(members) == 0:
                    # Re-seed an empty cluster at the worst-served point.
                    new_centers[j] = X[d.min(axis=1).argmax()]
                else:
                    # members.mean(axis=0): the same sum and division,
                    # without mean's Python wrapper
                    new_centers[j] = np.add.reduce(members, axis=0) / len(members)
            shift = np.linalg.norm(new_centers - centers)
            centers = new_centers
            self.n_iter_ = it + 1
            if shift <= self.tol * max(1.0, np.linalg.norm(centers)):
                break
        d = _pairwise_sq_dist(X, centers, x_sq)
        self.labels_ = d.argmin(axis=1)
        self.inertia_ = float(d.min(axis=1).sum())
        self.centers_ = centers
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Nearest-centre labels for new points."""
        if self.centers_ is None:
            raise EstimationError("KMeans not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _pairwise_sq_dist(X, self.centers_).argmin(axis=1)

    def predict_one(self, x: np.ndarray) -> int:
        return int(self.predict(x[None, :])[0])


def elbow_k(
    X: np.ndarray,
    k_max: int = 25,
    rng: np.random.Generator | None = None,
) -> int:
    """Pick K with the elbow method (max distance to the inertia chord).

    Fits K-means for k = 1..k_max and returns the k whose inertia point
    is farthest from the straight line joining the endpoints of the
    inertia curve — the classical geometric knee.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise EstimationError("elbow_k needs a 2-D array")
    n = X.shape[0]
    if n == 0:
        raise EstimationError("elbow_k needs data")
    # Same distinct-sample clamp as KMeans.fit: sweeping k past the number
    # of distinct rows overflows K relative to the data (every extra k
    # repeats the same zero-improvement inertia and can crown a bogus
    # elbow at the duplicated tail).
    k_max = min(k_max, _n_distinct_rows(X))
    rng = rng or np.random.default_rng(0)
    ks = np.arange(1, k_max + 1)
    inertias = np.array([KMeans(int(k), rng=rng).fit(X).inertia_ for k in ks])
    if k_max == 1:
        return 1
    # Distance from each (k, inertia) point to the chord, after scaling
    # both axes to [0, 1] so units do not dominate.
    x = (ks - ks[0]) / max(ks[-1] - ks[0], 1)
    span = inertias[0] - inertias[-1]
    y = (inertias - inertias[-1]) / span if span > 0 else np.zeros_like(inertias)
    # Chord from (0, y[0]) to (1, y[-1]) i.e. (0,1)->(1,0): distance ~ x + y - 1
    dist = np.abs(x + y - 1.0) / np.sqrt(2.0)
    return int(ks[dist.argmax()])
