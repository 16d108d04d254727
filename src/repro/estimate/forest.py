"""Random-forest regression, from scratch.

A baseline of Fig. 11b and one third of IRPA's ensemble.  CART-style
regression trees (variance-reduction splits over quantile candidate
thresholds), bagged over bootstrap resamples with per-split random
feature subsets.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from repro.errors import EstimationError


@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """CART regression tree with variance-reduction splits.

    Args:
        max_depth: depth cap.
        min_samples_leaf: smallest allowed leaf.
        max_features: features examined per split (``None`` = all).
        rng: numpy Generator for feature sub-sampling.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        max_features: int | None = None,
        rng: np.random.Generator | None = None,
        n_thresholds: int = 8,
    ) -> None:
        if max_depth < 1 or min_samples_leaf < 1:
            raise EstimationError("invalid tree hyper-parameters")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng or np.random.default_rng(0)
        self.n_thresholds = n_thresholds
        self._root: _TreeNode | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] == 0 or X.shape[0] != y.shape[0]:
            raise EstimationError("fit needs matching non-empty X, y")
        self._root = self._grow(X, y, depth=0)
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        node = _TreeNode(value=float(y.mean()))
        n = len(y)
        if depth >= self.max_depth or n < 2 * self.min_samples_leaf or np.ptp(y) < 1e-12:
            return node
        n_feat = X.shape[1]
        k = self.max_features or n_feat
        feats = self.rng.choice(n_feat, size=min(k, n_feat), replace=False)
        best_gain, best_feat, best_thr = 0.0, -1, 0.0
        parent_sse = float(((y - y.mean()) ** 2).sum())
        for f in feats:
            col = X[:, f]
            qs = np.linspace(0.05, 0.95, self.n_thresholds)
            for thr in np.unique(np.quantile(col, qs)):
                mask = col <= thr
                nl = int(mask.sum())
                if nl < self.min_samples_leaf or n - nl < self.min_samples_leaf:
                    continue
                yl, yr = y[mask], y[~mask]
                sse = float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())
                gain = parent_sse - sse
                if gain > best_gain:
                    best_gain, best_feat, best_thr = gain, int(f), float(thr)
        if best_feat < 0:
            return node
        mask = X[:, best_feat] <= best_thr
        node.feature = best_feat
        node.threshold = best_thr
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise EstimationError("tree not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out


class RandomForestRegressor:
    """Bagged regression trees with random feature subsets.

    Args:
        n_estimators: trees in the forest.
        max_depth / min_samples_leaf: per-tree limits.
        max_features: per-split feature budget (default √d).
        rng: numpy Generator; forests are fully deterministic given it.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        max_features: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if n_estimators < 1:
            raise EstimationError("need at least one tree")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng or np.random.default_rng(0)
        self._trees: list[RegressionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] == 0 or X.shape[0] != y.shape[0]:
            raise EstimationError("fit needs matching non-empty X, y")
        n, d = X.shape
        max_features = self.max_features or max(1, int(np.sqrt(d)))
        self._trees = []
        for _ in range(self.n_estimators):
            idx = self.rng.integers(0, n, size=n)  # bootstrap
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=self.rng,
            )
            tree.fit(X[idx], y[idx])
            self._trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise EstimationError("forest not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.mean([t.predict(X) for t in self._trees], axis=0)
