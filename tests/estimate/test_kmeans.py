"""Tests for K-means++ and the elbow method."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EstimationError
from repro.estimate.kmeans import KMeans, elbow_k


def blobs(k=3, n_per=50, spread=0.1, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 10, size=(k, 4))
    X = np.concatenate([c + spread * rng.normal(size=(n_per, 4)) for c in centers])
    return X, centers


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        X, _ = blobs(k=3)
        km = KMeans(3, rng=np.random.default_rng(1)).fit(X)
        labels = km.labels_
        # Each blob of 50 should be a single cluster
        for b in range(3):
            block = labels[b * 50 : (b + 1) * 50]
            assert len(set(block.tolist())) == 1

    def test_inertia_decreases_with_k(self):
        X, _ = blobs(k=4)
        inertias = [
            KMeans(k, rng=np.random.default_rng(0)).fit(X).inertia_ for k in (1, 2, 4, 8)
        ]
        assert inertias == sorted(inertias, reverse=True)

    def test_predict_matches_fit_labels(self):
        X, _ = blobs()
        km = KMeans(3, rng=np.random.default_rng(2)).fit(X)
        np.testing.assert_array_equal(km.predict(X), km.labels_)

    def test_predict_one(self):
        X, _ = blobs()
        km = KMeans(3, rng=np.random.default_rng(2)).fit(X)
        assert km.predict_one(X[0]) == km.labels_[0]

    def test_more_clusters_than_points_clamped(self):
        X = np.arange(6, dtype=float).reshape(3, 2)
        km = KMeans(10, rng=np.random.default_rng(0)).fit(X)
        assert km.n_clusters == 3

    def test_clamps_to_distinct_rows(self):
        # 6 rows but only 2 distinct values: K must clamp to 2, not 6.
        X = np.array([[1.0], [1.0], [1.0], [5.0], [5.0], [5.0]])
        km = KMeans(6, rng=np.random.default_rng(0)).fit(X)
        assert km.n_clusters == 2
        assert km.inertia_ == pytest.approx(0.0)

    def test_identical_points(self):
        X = np.ones((20, 3))
        km = KMeans(4, rng=np.random.default_rng(0)).fit(X)
        assert km.n_clusters == 1
        assert km.inertia_ == pytest.approx(0.0)

    def test_invalid_inputs(self):
        with pytest.raises(EstimationError):
            KMeans(0)
        with pytest.raises(EstimationError):
            KMeans(2).fit(np.empty((0, 3)))
        with pytest.raises(EstimationError):
            KMeans(2).predict(np.ones((2, 2)))

    def test_refit_clamps_from_the_requested_k(self):
        few = np.repeat(np.eye(3), 4, axis=0)  # 3 distinct rows
        X, _ = blobs(k=3, n_per=50, seed=6)
        km = KMeans(15, rng=np.random.default_rng(0))
        assert km.fit(few).n_clusters == 3
        assert km.fit(X).n_clusters == 15
        assert len(km.centers_) == 15

    @pytest.mark.parametrize("k", [2.5, 3.0, np.nan, "3"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(EstimationError, match="n_clusters"):
            KMeans(k)

    # a NaN tolerance failed every convergence check: max_iter rounds
    @pytest.mark.parametrize("tol", [np.nan, -1e-6, np.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(EstimationError, match="tol"):
            KMeans(3, tol=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        X, _ = blobs(seed=1)
        X[7, 0] = bad
        with pytest.raises(EstimationError, match="finite"):
            KMeans(3).fit(X)

    def test_deterministic_given_rng(self):
        X, _ = blobs(seed=5)
        a = KMeans(3, rng=np.random.default_rng(9)).fit(X)
        b = KMeans(3, rng=np.random.default_rng(9)).fit(X)
        np.testing.assert_array_equal(a.labels_, b.labels_)

    @given(st.integers(1, 8), st.integers(10, 60))
    @settings(max_examples=20, deadline=None)
    def test_labels_in_range(self, k, n):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(n, 3))
        km = KMeans(k, rng=rng).fit(X)
        assert km.labels_.min() >= 0
        assert km.labels_.max() < km.n_clusters


class TestElbow:
    def test_finds_knee_on_blobs(self):
        X, _ = blobs(k=4, n_per=40, spread=0.05, seed=3)
        k = elbow_k(X, k_max=10, rng=np.random.default_rng(0))
        assert 3 <= k <= 6  # the knee should sit near the true k

    def test_single_point(self):
        assert elbow_k(np.ones((1, 2))) == 1

    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            elbow_k(np.empty((0, 2)))

    @pytest.mark.parametrize("window", list(range(2, 15)))
    def test_short_history_windows(self, window):
        """K never overflows the distinct sample count at window sizes 2-14.

        Regression for the estimator's per-user history windows: short
        windows routinely contain repeated wall times (the same binary
        resubmitted), and the elbow sweep used to fit K up to the *row*
        count, crowning a bogus knee past the distinct-value tail.
        """
        rng = np.random.default_rng(window)
        # At most 3 distinct runtimes, repeated to fill the window.
        distinct = np.array([[60.0], [600.0], [3600.0]])[: min(3, window)]
        X = distinct[rng.integers(len(distinct), size=window)]
        n_distinct = np.unique(X, axis=0).shape[0]
        k = elbow_k(X, k_max=25, rng=np.random.default_rng(0))
        assert 1 <= k <= n_distinct

    @pytest.mark.parametrize("window", list(range(2, 15)))
    def test_all_duplicate_window_returns_one(self, window):
        X = np.full((window, 1), 42.0)
        assert elbow_k(X, k_max=25, rng=np.random.default_rng(0)) == 1
