"""Tests for the FP-Tree constructor: rearranging, stats, broadcast."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.fptree import (
    FPTreeBroadcast,
    FPTreeConstructor,
    NullPredictor,
    OraclePredictor,
    StaticSetPredictor,
    build_tree,
    leaf_positions,
    rearrange,
)
from repro.network import FabricConfig, NetworkFabric, TreeBroadcast
from repro.simkit import Simulator


def build(n=256, seed=0):
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(n_nodes=n).build(sim)
    fabric = NetworkFabric(sim, cluster, FabricConfig())
    return sim, cluster, fabric


def pool_walk(nodelist, leaf_idx, predicted_failed):
    """Reference placement: walk positions in order; a leaf position
    takes the next predicted-failed node, an inner position the next
    healthy one, each falling back to the other pool when its own runs
    dry.  Returns the ordering and how many predicted copies landed on
    leaves."""
    predicted = set(predicted_failed)
    leaves = set(leaf_idx)
    failed_pool = deque(nid for nid in nodelist if nid in predicted)
    healthy_pool = deque(nid for nid in nodelist if nid not in predicted)
    out = []
    for pos in range(len(nodelist)):
        if pos in leaves:
            pool, alt = failed_pool, healthy_pool
        else:
            pool, alt = healthy_pool, failed_pool
        out.append(pool.popleft() if pool else alt.popleft())
    on_leaves = sum(1 for pos, nid in enumerate(out) if nid in predicted and pos in leaves)
    return out, on_leaves


@st.composite
def placements(draw):
    """A nodelist (duplicates allowed), a width and a predicted set that
    may include ids absent from the list."""
    nodelist = draw(st.lists(st.integers(0, 400), min_size=1, max_size=300))
    width = draw(st.integers(2, 64))
    present = draw(st.sets(st.sampled_from(nodelist)))
    absent = draw(st.sets(st.integers(401, 450), max_size=3))
    return nodelist, width, present | absent


class TestPlacementMatchesPoolWalk:
    @given(placements())
    @settings(max_examples=300, deadline=None)
    def test_rearrange_equals_pool_walk(self, case):
        nodelist, width, predicted = case
        leaves = leaf_positions(len(nodelist), width)
        assert rearrange(nodelist, leaves, predicted) == pool_walk(nodelist, leaves, predicted)[0]

    @given(placements())
    @settings(max_examples=300, deadline=None)
    def test_construct_equals_pool_walk(self, case):
        targets, width, predicted = case
        ctor = FPTreeConstructor(StaticSetPredictor(predicted), width=width)
        leaves = [p - 1 for p in leaf_positions(len(targets) + 1, width) if p > 0]
        expected, on_leaves = pool_walk(targets, leaves, predicted & set(targets))
        assert ctor.construct(0, targets) == expected
        assert ctor.stats.predicted_on_leaves == on_leaves

    @pytest.mark.parametrize("width", [2, 3, 8, 64])
    def test_nothing_predicted(self, width):
        nodes = list(range(100, 190))
        leaves = leaf_positions(len(nodes), width)
        assert rearrange(nodes, leaves, set()) == pool_walk(nodes, leaves, set())[0] == nodes

    @pytest.mark.parametrize("width", [2, 3, 8, 64])
    def test_more_predicted_than_leaves(self, width):
        nodes = list(range(100, 190))
        leaves = leaf_positions(len(nodes), width)
        predicted = set(nodes[::3]) | set(nodes[-len(leaves) :])
        assert len(predicted) > len(leaves)
        out = rearrange(nodes, leaves, predicted)
        assert out == pool_walk(nodes, leaves, predicted)[0]
        assert {out[i] for i in leaves} <= predicted

    def test_duplicated_predicted_target_moves_both_copies(self):
        nodes = [7, 1, 2, 7, 3, 4, 5, 6, 8, 9]
        leaves = leaf_positions(len(nodes), 3)
        out = rearrange(nodes, leaves, {7})
        assert out == pool_walk(nodes, leaves, {7})[0]
        assert [out[i] for i in leaves[:2]] == [7, 7]

    def test_construct_counts_placed_copies(self):
        targets = [5, 1, 5, 2, 3, 4, 6]
        ctor = FPTreeConstructor(StaticSetPredictor({5}), width=2)
        leaves = [p - 1 for p in leaf_positions(len(targets) + 1, 2) if p > 0]
        expected, on_leaves = pool_walk(targets, leaves, {5})
        assert ctor.construct(0, targets) == expected
        assert ctor.stats.predicted_on_leaves == on_leaves == 2


class TestRearrange:
    def test_no_predictions_identity(self):
        nodes = [5, 3, 8, 1, 9]
        out = rearrange(nodes, leaf_idx=[2, 3, 4], predicted_failed=set())
        assert out == nodes

    def test_predicted_moved_to_leaves(self):
        nodes = list(range(10))
        leaves = [5, 6, 7, 8, 9]
        out = rearrange(nodes, leaves, predicted_failed={0, 1})
        for pos, nid in enumerate(out):
            if nid in {0, 1}:
                assert pos in set(leaves)

    def test_healthy_order_preserved(self):
        nodes = list(range(10))
        out = rearrange(nodes, leaf_idx=[8, 9], predicted_failed={3})
        healthy = [n for n in out if n != 3]
        assert healthy == [n for n in nodes if n != 3]

    def test_more_predicted_than_leaves_overflows_to_inner(self):
        nodes = list(range(6))
        out = rearrange(nodes, leaf_idx=[5], predicted_failed={0, 1, 2, 3, 4, 5})
        assert sorted(out) == nodes  # still a permutation

    @given(
        st.integers(1, 200),
        st.integers(2, 10),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=50)
    def test_is_always_permutation(self, n, w, frac):
        nodes = list(range(n))
        leaves = leaf_positions(n, w)
        predicted = set(nodes[: int(frac * n)])
        out = rearrange(nodes, leaves, predicted)
        assert sorted(out) == nodes


class TestConstructor:
    def test_predicted_nodes_land_on_tree_leaves(self):
        predicted = {10, 20, 30, 40}
        ctor = FPTreeConstructor(StaticSetPredictor(predicted), width=4)
        targets = list(range(1, 128))
        ordered = ctor.construct(root=0, targets=targets)
        tree = build_tree([0, *ordered], width=4)
        leaf_ids = set(tree.leaf_ids())
        assert predicted <= leaf_ids

    def test_stats_accumulate(self):
        ctor = FPTreeConstructor(StaticSetPredictor({1, 2}), width=4)
        ctor.construct(0, list(range(1, 50)))
        ctor.construct(0, list(range(1, 50)))
        assert ctor.stats.trees_built == 2
        assert ctor.stats.predicted_total == 4
        assert ctor.stats.leaf_placement_ratio == 1.0

    def test_empty_targets(self):
        ctor = FPTreeConstructor(NullPredictor(), width=4)
        assert ctor.construct(0, []) == []

    def test_null_predictor_keeps_order(self):
        ctor = FPTreeConstructor(NullPredictor(), width=4)
        targets = [9, 4, 7, 2]
        assert ctor.construct(0, targets) == targets

    def test_leaf_placement_ratio_no_predictions(self):
        ctor = FPTreeConstructor(NullPredictor(), width=4)
        ctor.construct(0, list(range(1, 10)))
        assert ctor.stats.leaf_placement_ratio == 1.0


class TestFPTreeBroadcast:
    def test_beats_plain_tree_under_predicted_failures(self):
        n = 1024
        _, cluster, fabric = build(n=n, seed=2)
        failed = cluster.fail_fraction(0.1)
        plain = TreeBroadcast(width=16).simulate(0, list(range(1, n)), 4096, fabric)
        fp = FPTreeBroadcast(OraclePredictor(cluster), width=16).simulate(
            0, list(range(1, n)), 4096, fabric
        )
        assert fp.makespan_s < plain.makespan_s
        assert set(fp.failed) == set(plain.failed) == set(failed) - {0}

    def test_equivalent_to_plain_tree_without_failures(self):
        n = 256
        _, cluster, fabric = build(n=n)
        plain = TreeBroadcast(width=8).simulate(0, list(range(1, n)), 1024, fabric)
        fp = FPTreeBroadcast(NullPredictor(), width=8).simulate(0, list(range(1, n)), 1024, fabric)
        assert fp.makespan_s == pytest.approx(plain.makespan_s)

    def test_wrong_prediction_is_harmless(self):
        # Over-prediction principle: predicting healthy nodes failed only
        # moves them to leaves; everything still gets delivered.
        n = 128
        _, cluster, fabric = build(n=n)
        fp = FPTreeBroadcast(StaticSetPredictor(set(range(1, 60))), width=8)
        res = fp.simulate(0, list(range(1, n)), 1024, fabric)
        assert res.failed == ()
        assert res.delivery_ratio == 1.0

    def test_stats_exposed(self):
        _, cluster, fabric = build(n=64)
        fp = FPTreeBroadcast(StaticSetPredictor({5}), width=8)
        fp.simulate(0, list(range(1, 64)), 1024, fabric)
        assert fp.stats.trees_built == 1
        assert fp.width == 8

    def test_fp_tree_flat_under_increasing_predicted_failures(self):
        """The core Fig. 8b claim: FP-Tree latency barely grows with
        failure ratio while the plain tree's explodes."""
        n = 1024
        fp_times, plain_times = [], []
        for frac in (0.0, 0.2):
            _, cluster, fabric = build(n=n, seed=4)
            cluster.fail_fraction(frac)
            plain_times.append(
                TreeBroadcast(width=16).simulate(0, list(range(1, n)), 4096, fabric).makespan_s
            )
            fp_times.append(
                FPTreeBroadcast(OraclePredictor(cluster), width=16)
                .simulate(0, list(range(1, n)), 4096, fabric)
                .makespan_s
            )
        plain_growth = plain_times[1] / plain_times[0]
        fp_growth = fp_times[1] / fp_times[0]
        assert fp_growth < plain_growth


class TestConstructMemo:
    def test_repeat_construct_hits_and_matches(self):
        ctor = FPTreeConstructor(StaticSetPredictor({3, 7}), width=4)
        targets = list(range(1, 30))
        first = ctor.construct(0, targets)
        second = ctor.construct(0, targets)
        assert second == first
        assert (ctor.memo_misses, ctor.memo_hits) == (1, 1)

    def test_hit_returns_fresh_list(self):
        ctor = FPTreeConstructor(StaticSetPredictor({3}), width=4)
        targets = list(range(1, 20))
        a = ctor.construct(0, targets)
        a[0] = -1  # caller mutation must not poison the memo
        b = ctor.construct(0, targets)
        assert b[0] != -1

    def test_hit_replays_stats(self):
        ctor = FPTreeConstructor(StaticSetPredictor({1, 2}), width=4)
        targets = list(range(1, 17))
        ctor.construct(0, targets)
        miss_stats = (
            ctor.stats.trees_built,
            ctor.stats.nodes_placed,
            ctor.stats.predicted_total,
            ctor.stats.predicted_on_leaves,
        )
        ctor.construct(0, targets)
        assert ctor.stats.trees_built == 2 * miss_stats[0]
        assert ctor.stats.nodes_placed == 2 * miss_stats[1]
        assert ctor.stats.predicted_total == 2 * miss_stats[2]
        assert ctor.stats.predicted_on_leaves == 2 * miss_stats[3]

    def test_hit_replays_observers(self):
        ctor = FPTreeConstructor(StaticSetPredictor({2}), width=4)
        calls = []
        ctor.construct_observers.append(
            lambda targets, ordered, leaf_idx, predicted: calls.append(
                (tuple(targets), tuple(ordered), tuple(leaf_idx), frozenset(predicted))
            )
        )
        targets = list(range(1, 12))
        ctor.construct(0, targets)
        ctor.construct(0, targets)
        assert len(calls) == 2
        assert calls[0] == calls[1]

    def test_changed_prediction_set_misses(self):
        predictor = StaticSetPredictor({2})
        ctor = FPTreeConstructor(predictor, width=4)
        targets = list(range(1, 12))
        ctor.construct(0, targets)
        predictor.predicted = {2, 5}
        ctor.construct(0, targets)
        assert ctor.memo_misses == 2
        assert ctor.memo_hits == 0

    def test_changed_targets_miss(self):
        ctor = FPTreeConstructor(StaticSetPredictor({2}), width=4)
        ctor.construct(0, list(range(1, 12)))
        ctor.construct(0, list(range(1, 13)))
        assert ctor.memo_misses == 2
