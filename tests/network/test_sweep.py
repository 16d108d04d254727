"""The tree engine's level sweep against the scalar recursion.

The sweep evaluates trees level by level over a cached per-size shape
(``_tree_shape``) and reads liveness from the cluster's ``state``
column.  Its whole contract is bit-identity with the recursive walk,
so the twin test below draws what the contiguous ``range(1, n)``
equivalence tests in ``test_structures.py`` never reach: permuted,
non-contiguous targets, dead subtrees nested under dead subtrees, and
forests that reuse one cached shape under different down sets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.errors import ClusterError, ConfigurationError
from repro.fptree.tree import children_bounds
from repro.network import FabricConfig, NetworkFabric, TreeBroadcast
from repro.network.structures import _SHAPE_CACHE_SIZE, _range_end, _tree_shape
from repro.simkit import Simulator

N_NODES = 10_000


def build(n=N_NODES):
    sim = Simulator(seed=0)
    cluster = ClusterSpec(n_nodes=n).build(sim)
    return cluster, NetworkFabric(sim, cluster, FabricConfig())


def scalar_tree(width, per_target_root_s):
    engine = TreeBroadcast(width=width, per_target_root_s=per_target_root_s)
    # Instance attribute shadows the class threshold: force the recursive walk.
    engine.FAST_PATH_MIN_TARGETS = 10**9
    return engine


def inner_child(lo, hi, width, rng):
    """A random child range of ``[lo, hi)`` that has descendants, or None."""
    inner = [(c_lo, c_hi) for c_lo, c_hi in children_bounds(lo, hi, width) if c_hi - c_lo > 1]
    return inner[rng.integers(len(inner))] if inner else None


@st.composite
def forests(draw):
    """``(width, per_target_root_s, tasks, down)`` over disjoint id sets."""
    width = draw(st.integers(2, 40))
    per_target_root_s = draw(st.sampled_from([0.0, 1e-5]))
    size = draw(st.integers(64, 3000))
    # one size repeated (a reused cached shape), then up to one other
    sizes = [size] * draw(st.integers(1, 2)) + draw(st.lists(st.integers(64, 3000), max_size=1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # permuted, non-contiguous ids: a random subset of the machine, shuffled
    ids = rng.choice(N_NODES, size=sum(n + 1 for n in sizes), replace=False).tolist()
    tasks, down = [], set()
    for n in sizes:
        nodelist, ids = ids[: n + 1], ids[n + 1 :]
        tasks.append((nodelist[0], nodelist[1:]))
        # a dead inner node with a dead inner node in its own subtree
        outer = inner_child(0, n + 1, width, rng)
        if outer is not None and draw(st.booleans()):
            down.add(nodelist[outer[0]])
            nested = inner_child(*outer, width, rng)
            if nested is not None:
                down.add(nodelist[nested[0]])
        dead_frac = draw(st.sampled_from([0.0, 0.01, 0.1]))
        down.update(t for t in nodelist[1:] if rng.random() < dead_frac)
    return width, per_target_root_s, tasks, down


def outcome(result):
    return result.makespan_s, result.failed, result.n_timeouts, result.arrivals


class TestSweepTwin:
    @given(forests())
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_recursion(self, case):
        width, per_target_root_s, tasks, down = case
        cluster, fabric = build()
        cluster.fail_nodes(sorted(down))
        fast = TreeBroadcast(width=width, per_target_root_s=per_target_root_s)
        slow = scalar_tree(width, per_target_root_s)
        want = [slow.simulate(r, ts, 4096, fabric, record_arrivals=True) for r, ts in tasks]
        # one tree at a time, with arrivals ...
        got = [fast.simulate(r, ts, 4096, fabric, record_arrivals=True) for r, ts in tasks]
        assert [outcome(r) for r in got] == [outcome(r) for r in want]
        # ... and the whole forest in one sweep
        forest = fast.simulate_forest(tasks, 4096, fabric)
        assert [outcome(r)[:3] for r in forest] == [outcome(r)[:3] for r in want]


class TestTreeShape:
    @pytest.mark.parametrize("width", [2, 3, 8, 32])
    def test_levels_reproduce_children_bounds(self, width):
        for n in range(1, 301):
            # the recursion's children, level by level, parent-major
            expected, frontier = [], [(0, n)]
            while True:
                level = [
                    (lo, c_lo, c_hi, j + 1)
                    for lo, hi in frontier
                    for j, (c_lo, c_hi) in enumerate(children_bounds(lo, hi, width))
                ]
                if not level:
                    break
                expected.append(level)
                frontier = [(c_lo, c_hi) for _, c_lo, c_hi, _ in level]
            shape = _tree_shape(n, width)
            got = []
            for depth, (lo, rank) in enumerate(shape, 1):
                lo, rank = lo.tolist(), rank.tolist()
                got.append([
                    (lo[e + 1 - r] - 1, pos, _range_end(shape, depth, pos, n), r)
                    for e, (pos, r) in enumerate(zip(lo, rank))
                ])
            assert got == expected

    def test_shape_is_compact_and_read_only(self):
        lo, rank = _tree_shape(1000, 32)[0]
        assert lo.dtype == np.int32
        assert rank.dtype == np.uint8
        with pytest.raises(ValueError):
            lo[0] = 5

    def test_cache_has_a_fixed_bound(self):
        assert _tree_shape.cache_info().maxsize == _SHAPE_CACHE_SIZE
        for n in range(2, 2 + 2 * _SHAPE_CACHE_SIZE):
            _tree_shape(n, 7)
        assert _tree_shape.cache_info().currsize == _SHAPE_CACHE_SIZE


class TestInvalidTargets:
    """The sweep rejects an unknown target like the recursion's
    ``is_reachable`` does, whether or not anything is down, and a
    repeated target like ``BroadcastStructure._validate``."""

    @pytest.mark.parametrize("fail", [False, True])
    @pytest.mark.parametrize("engine", [TreeBroadcast(width=8), scalar_tree(8, 0.0)])
    def test_unknown_target_raises(self, engine, fail):
        cluster, fabric = build(n=256)
        if fail:
            cluster.fail_nodes([3])
        targets = list(range(1, 100)) + [10_000]
        with pytest.raises(ClusterError, match="unknown node id 10000"):
            engine.simulate(0, targets, 1024, fabric)

    @pytest.mark.parametrize("engine", [TreeBroadcast(width=8), scalar_tree(8, 0.0)])
    def test_duplicate_target_raises(self, engine):
        _, fabric = build(n=256)
        tasks = [(0, list(range(1, 100))), (100, list(range(101, 200)) + [150])]
        with pytest.raises(ConfigurationError, match="duplicates"):
            engine.simulate_forest(tasks, 1024, fabric)
