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
from repro.cluster.topology import Topology
from repro.errors import ClusterError, ConfigurationError
from repro.fptree.tree import children_bounds
from repro.network import NetworkFabric, TreeBroadcast
from repro.network.structures import _SHAPE_CACHE_SIZE, _range_end, _tree_shape
from repro.simkit import Simulator

N_NODES = 10_000


def build(n=N_NODES, topology=None):
    sim = Simulator(seed=0)
    cluster = ClusterSpec(n_nodes=n, topology=topology or Topology()).build(sim)
    return cluster, NetworkFabric(sim, cluster)


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
def forests(draw, roots=()):
    """``(width, per_target_root_s, tasks, down)`` over disjoint id sets;
    a tree's root is one of ``roots`` (ids past the compute nodes) when
    a draw says so."""
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
        if roots and draw(st.booleans()):
            nodelist[0] = draw(st.sampled_from(roots))
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


def check_twin(case, topology=None):
    """The sweep's results, one tree at a time and as one forest,
    equal the recursion's."""
    width, per_target_root_s, tasks, down = case
    cluster, fabric = build(topology=topology)
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


class TestSweepTwin:
    @given(forests())
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_recursion(self, case):
        check_twin(case)

    @given(forests(roots=(N_NODES, N_NODES + 1, N_NODES + 2)))
    @settings(max_examples=30, deadline=None)
    def test_odd_topology_and_service_roots(self, case):
        # A layout with no power-of-two dimension (hop-code fields wider
        # than their ranges), and roots on the master or a satellite.
        check_twin(case, topology=Topology(6, 5, 3))


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
            for depth in range(1, len(shape.bounds)):
                lo, rank, parent = (a.tolist() for a in shape.level(depth))
                got.append([
                    (p, pos, _range_end(shape, depth, pos, n), r)
                    for pos, r, p in zip(lo, rank, parent)
                ])
            assert got == expected

    def test_shape_is_compact_and_read_only(self):
        shape = _tree_shape(1000, 32)
        assert shape.lo.dtype == np.int32
        assert shape.rank.dtype == np.uint8
        assert shape.parent.dtype == np.int32
        for column in (shape.lo, shape.rank, *shape.level(1)):
            with pytest.raises(ValueError):
                column[0] = 5

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

    @pytest.mark.parametrize("unknown", [-1, 256 + 3, 10_000])
    @pytest.mark.parametrize("engine", [TreeBroadcast(width=8), scalar_tree(8, 0.0)])
    def test_unknown_target_in_a_forest_raises(self, engine, unknown):
        # A ClusterError, not the IndexError (or a wrapped negative
        # read) an unguarded gather over the id columns would give.
        _, fabric = build(n=256)
        tasks = [(0, list(range(1, 100))), (100, list(range(101, 200)) + [unknown])]
        with pytest.raises(ClusterError, match=f"unknown node id {unknown}"):
            engine.simulate_forest(tasks, 1024, fabric)

    @pytest.mark.parametrize(
        "tasks",
        [
            [(0, list(range(1, 100)) + [42])],
            # the repeat's other copy sits in another tree as well
            [
                (0, list(range(1, 100))),
                (100, [7, *range(101, 200), 7]),
                (200, [7, *range(201, 256)]),
            ],
        ],
        ids=["one-tree", "also-in-another-tree"],
    )
    @pytest.mark.parametrize("engine", [TreeBroadcast(width=8), scalar_tree(8, 0.0)])
    def test_repeat_within_a_tree_raises(self, engine, tasks):
        _, fabric = build(n=256)
        with pytest.raises(ConfigurationError, match="duplicates"):
            engine.simulate_forest(tasks, 1024, fabric)

    @pytest.mark.parametrize("fail", [False, True])
    def test_shared_ids_across_trees_and_root_among_targets(self, fail):
        # The same id in two trees of one forest, or a root among its
        # own targets, is no repeat: the sweep agrees with the recursion.
        cluster, fabric = build(n=256)
        if fail:
            cluster.fail_nodes([5, 150])
        tasks = [
            (0, list(range(1, 120))),
            (100, list(range(60, 200))),
            (7, list(range(0, 90))),
        ]
        want = [scalar_tree(8, 0.0).simulate(r, ts, 1024, fabric) for r, ts in tasks]
        got = TreeBroadcast(width=8).simulate_forest(tasks, 1024, fabric)
        assert [outcome(r)[:3] for r in got] == [outcome(r)[:3] for r in want]

    @pytest.mark.parametrize("fail", [False, True])
    @pytest.mark.parametrize("root", [-1, 256 + 3, 10_000])
    def test_out_of_range_root(self, root, fail):
        # Roots are never asked for liveness: a root past the ids reads
        # as node 0 (like the master), a negative one as a rack away.
        cluster, fabric = build(n=256)
        if fail:
            cluster.fail_nodes([9])
        targets = list(range(0, 200))
        want = scalar_tree(8, 0.0).simulate(root, targets, 1024, fabric, record_arrivals=True)
        got = TreeBroadcast(width=8).simulate(root, targets, 1024, fabric, record_arrivals=True)
        assert outcome(got) == outcome(want)
