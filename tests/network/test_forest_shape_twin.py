"""Cached forest shapes against the per-launch merge they replaced.

``_forest_shape`` merges the trees' level-order shapes once per
``(sizes, width)`` and keeps the result in a bounded cache; the
reference below is the uncached merge as it ran on every launch.  Both
must give equal columns of equal dtypes and equal level bounds, the
cached columns must be read-only, and a single tree must bypass the
merge.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.network import NetworkFabric, TreeBroadcast
from repro.network.structures import _FOREST_CACHE_SIZE, _forest_shape, _Shape, _tree_shape
from repro.simkit import Simulator


def merge_uncached(shapes, offsets):
    """The trees' shapes merged depth by depth, as every launch did."""
    if len(shapes) == 1:
        return shapes[0]
    parts = [
        (off, depth, shape.level(depth))
        for depth in range(1, max(len(shape.bounds) for shape in shapes))
        for off, shape in zip(offsets.tolist(), shapes)
        if depth < len(shape.bounds)
    ]
    bounds = [0] * (parts[-1][1] + 1)
    for _, depth, level in parts:
        bounds[depth] += level[0].size
    shift = np.repeat(
        np.array([off for off, _, _ in parts], dtype=np.int32), [lv[0].size for _, _, lv in parts]
    )
    lo, rank, parent = (np.concatenate([lv[i] for _, _, lv in parts]) for i in range(3))
    return _Shape(lo + shift, rank, parent + shift, tuple(itertools.accumulate(bounds)))


#: tree sizes (root included): single columns, small trees and trees
#: deeper than one level at the widths drawn
sizes_st = st.lists(st.integers(2, 5) | st.integers(2, 400), min_size=2, max_size=12)


class TestTwin:
    @given(sizes_st, st.sampled_from([2, 3, 8, 32]))
    @settings(max_examples=150, deadline=None)
    def test_cached_merge_equals_uncached(self, sizes, width):
        offsets = np.fromiter(itertools.accumulate(sizes[:-1], initial=0), np.int64, len(sizes))
        want = merge_uncached([_tree_shape(n, width) for n in sizes], offsets)
        for _ in range(2):  # the merge, then its cached copy
            got = _forest_shape(tuple(sizes), width)
            assert got.bounds == want.bounds
            for column, ref in zip(got[:3], want[:3]):
                assert column.dtype == ref.dtype
                assert np.array_equal(column, ref)
                assert not column.flags.writeable


class TestCache:
    def test_cache_has_a_fixed_bound(self):
        assert _forest_shape.cache_info().maxsize == _FOREST_CACHE_SIZE
        for n in range(2, 2 + 2 * _FOREST_CACHE_SIZE):
            _forest_shape((n, 3), 5)
        assert _forest_shape.cache_info().currsize == _FOREST_CACHE_SIZE

    def test_forest_hits_and_single_tree_bypasses(self):
        sim = Simulator(seed=0)
        cluster = ClusterSpec(n_nodes=1024).build(sim)
        fabric = NetworkFabric(sim, cluster)
        engine = TreeBroadcast(width=4)
        _forest_shape.cache_clear()
        engine.simulate(0, np.arange(1, 200), 1024, fabric)
        assert _forest_shape.cache_info().currsize == 0
        tasks = [(0, np.arange(1, 300)), (300, np.arange(301, 700))]
        first = engine.simulate_forest(tasks, 1024, fabric)
        again = engine.simulate_forest(tasks, 1024, fabric)
        info = _forest_shape.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert [r.makespan_s for r in again] == [r.makespan_s for r in first]
