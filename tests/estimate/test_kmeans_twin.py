"""K-means at its floor against the numpy calls it replaced.

``KMeans`` seeds with ``_weighted_index`` (the search
``Generator.choice(n, p=...)`` runs, without its argument checks),
clamps K with ``_n_distinct_rows`` (rows compared as bytes, not
``np.unique(X, axis=0)``), reuses the row norms across every distance
matrix of a fit and divides ``np.add.reduce`` by the member count in
place of ``mean(axis=0)``.  Each is twinned here against the call it
replaced, and the whole fit against a copy of its former body: the same
index, generator state, K, labels, centres, inertia and iteration count,
compared with ``array_equal``.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.estimate.kmeans import KMeans, _n_distinct_rows, _weighted_index


def former_pairwise_sq_dist(X, C):
    d = (
        (X * X).sum(axis=1)[:, None]
        - 2.0 * X @ C.T
        + (C * C).sum(axis=1)[None, :]
    )
    return np.maximum(d, 0.0)


def former_fit(X, n_clusters, rng, max_iter=100, tol=1e-6):
    """``KMeans(n_clusters, max_iter, tol, rng).fit(X)`` as it was:
    (K, centres, labels, inertia, iterations)."""
    X = np.asarray(X, dtype=float)
    k = min(n_clusters, np.unique(X, axis=0).shape[0])
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    closest = former_pairwise_sq_dist(X, centers[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[i] = X[idx]
        closest = np.minimum(closest, former_pairwise_sq_dist(X, centers[i : i + 1]).ravel())
    n_iter = 0
    for it in range(max_iter):
        d = former_pairwise_sq_dist(X, centers)
        labels = d.argmin(axis=1)
        new_centers = np.empty_like(centers)
        for j in range(k):
            members = X[labels == j]
            if len(members) == 0:
                new_centers[j] = X[d.min(axis=1).argmax()]
            else:
                new_centers[j] = members.mean(axis=0)
        shift = np.linalg.norm(new_centers - centers)
        centers = new_centers
        n_iter = it + 1
        if shift <= tol * max(1.0, np.linalg.norm(centers)):
            break
    d = former_pairwise_sq_dist(X, centers)
    return k, centers, d.argmin(axis=1), float(d.min(axis=1).sum()), n_iter


def assert_same_draw(probs, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _weighted_index(probs, rng) == int(ref.choice(len(probs), p=probs))
    assert rng.bit_generator.state == ref.bit_generator.state


@st.composite
def weights(draw):
    """Non-negative weights with at least one positive, normalised as
    the seeding normalises them: zeros, a lone non-zero weight and
    values from 1e-300 to 1e300 all occur."""
    n = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e150, 1e300]))
    w = draw(arrays(float, n, elements=st.floats(0.0, 1.0))) * scale
    w[draw(st.integers(0, n - 1))] = draw(st.floats(1e-3, 1.0)) * scale
    total = w.sum()
    assume(0 < total < np.inf)
    return w / total


class TestWeightedIndex:
    @settings(max_examples=300, deadline=None)
    @given(weights(), st.integers(0, 2**32 - 1))
    def test_equals_generator_choice(self, probs, seed):
        assert_same_draw(probs, seed)

    def test_single_non_zero_weight(self):
        for n in (1, 2, 7):
            for at in range(n):
                probs = np.zeros(n)
                probs[at] = 1.0
                for seed in range(20):
                    assert_same_draw(probs, seed)

    def test_draw_on_a_boundary(self):
        """The draw equals a CDF value: ``choice`` searches with
        ``side="right"``, so the draw goes to the next item."""
        for seed in range(40):
            u = np.random.default_rng(seed).random()
            if u < 0.5:  # keep u + (1 - u) exactly 1, so cdf[0] is u
                continue
            assert _weighted_index(np.array([u, 1.0 - u]), np.random.default_rng(seed)) == 1
            assert_same_draw(np.array([u, 1.0 - u]), seed)

    def test_normalisation_moves_a_boundary(self):
        """Weights summing to 1 + 1e-9 (``choice`` accepts them): the
        first CDF value lies above the draw before the normalisation and
        below it after, so skipping it picks the other item."""
        for seed in range(20):
            u = np.random.default_rng(seed).random()
            p0 = u * (1.0 + 5e-10)
            assert_same_draw(np.array([p0, 1.0 + 1e-9 - p0]), seed)

    def test_many_random_draws(self):
        rng = np.random.default_rng(0)
        for seed in range(500):
            w = rng.exponential(size=int(rng.integers(1, 60)))
            w[rng.random(len(w)) < 0.3] = 0.0
            if w.sum() > 0:
                assert_same_draw(w / w.sum(), seed)


WIDE = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e300, 3.0]


@st.composite
def row_sets(draw, values=WIDE, min_dims=0):
    """Matrices with repeated rows and signed zeros (and by default wide
    exponents), in either memory order."""
    d = draw(st.integers(min_dims, 5))
    values = st.sampled_from(values)
    pool = draw(arrays(float, (draw(st.integers(1, 6)), d), elements=values))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    X = pool[picks]
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    return X


class TestDistinctRows:
    @settings(max_examples=300, deadline=None)
    @given(row_sets())
    def test_equals_unique_axis0(self, X):
        assert _n_distinct_rows(X) == np.unique(X, axis=0).shape[0]

    def test_signed_zeros_are_equal(self):
        X = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]])
        assert _n_distinct_rows(X) == np.unique(X, axis=0).shape[0] == 2


class TestLloydMean:
    @settings(max_examples=200, deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 60), st.integers(1, 13)),
                  elements=st.floats(-1e6, 1e6)))
    def test_reduce_over_count_equals_mean(self, members):
        assert np.array_equal(np.add.reduce(members, axis=0) / len(members), members.mean(axis=0))


def assert_same_fit(X, k, seed, **kwargs):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    km = KMeans(k, rng=rng, **kwargs).fit(X)
    k_ref, centers, labels, inertia, n_iter = former_fit(X, k, ref_rng, **kwargs)
    assert km.n_clusters == k_ref
    assert np.array_equal(km.centers_, centers)
    assert np.array_equal(km.labels_, labels)
    assert km.inertia_ == inertia
    assert km.n_iter_ == n_iter
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestFit:
    def test_estimator_shaped(self):
        """700 standardised 13-feature rows over ~60 distinct jobs, K = 15
        (the paper's production K)."""
        rng = np.random.default_rng(3)
        distinct = rng.normal(size=(60, 13))
        X = distinct[rng.integers(0, 60, size=700)]
        for seed in range(5):
            assert_same_fit(X, 15, seed)

    @settings(max_examples=100, deadline=None)
    @given(row_sets([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 3.0, 1e100], min_dims=1),
           st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_property(self, X, k, seed):
        assert_same_fit(X, k, seed)

    def test_iteration_cap(self):
        X = np.random.default_rng(4).normal(size=(80, 3))
        assert_same_fit(X, 6, 0, max_iter=1)
        assert_same_fit(X, 6, 0, tol=0.0)
