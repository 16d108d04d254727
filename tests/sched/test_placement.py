"""Placement policies: hop scoring, topology-aware selection."""

import random

import pytest

from repro.cluster.topology import Topology
from repro.errors import ConfigurationError, SchedulingError
from repro.sched import (
    Job,
    NodePool,
    TopologyAwarePlacement,
    build_placement,
    placement_score,
)
from repro.sched.placement import placement_pair_counts

#: tiny machine: 2 nodes/board, 2 boards/chassis, 2 chassis/rack (8/rack)
TINY = Topology(nodes_per_board=2, boards_per_chassis=2, chassis_per_rack=2)


class TestPlacementScore:
    def test_singleton_scores_zero(self):
        assert placement_score([3], TINY) == 0.0
        assert placement_score([], TINY) == 0.0

    def test_same_board_pair(self):
        assert placement_score([0, 1], TINY) == 1.0

    def test_same_chassis_pair(self):
        assert placement_score([0, 2], TINY) == 2.0

    def test_same_rack_pair(self):
        assert placement_score([0, 4], TINY) == 3.0

    def test_cross_rack_pair(self):
        assert placement_score([0, 8], TINY) == 4.0

    def test_pair_counts_partition_all_pairs(self):
        nodes = [0, 1, 2, 5, 9, 14]
        counts = placement_pair_counts(nodes, TINY)
        assert sum(counts.values()) == len(nodes) * (len(nodes) - 1) // 2

    def test_matches_pairwise_hop_levels(self):
        nodes = [0, 3, 4, 8, 11]
        pairwise = [
            TINY.hop_level(a, b)
            for i, a in enumerate(nodes)
            for b in nodes[i + 1:]
        ]
        expected = sum(int(h) for h in pairwise) / len(pairwise)
        assert placement_score(nodes, TINY) == pytest.approx(expected)


class TestTopologyAware:
    def test_equal_tightness_prefers_lowest_container(self):
        policy = TopologyAwarePlacement(TINY)
        assert set(policy.select({0, 1, 4, 8, 9}, 2)) == {0, 1}

    def test_prefers_tightest_container(self):
        # Chassis 2 (ids 8-11) has exactly 3 free; chassis 0 has 4 —
        # best-fit leaves the bigger hole intact for later jobs.
        policy = TopologyAwarePlacement(TINY)
        assert set(policy.select({0, 1, 2, 3, 9, 10, 11}, 3)) == {9, 10, 11}

    def test_never_scores_worse_than_first_fit(self):
        # The compactness floor the oracle pins, swept over random free
        # sets: the policy's pick never scores above first-fit's on the
        # identical pool state.
        rng = random.Random(7)
        policy = TopologyAwarePlacement(TINY)
        universe = list(range(48))
        for _ in range(200):
            free = set(rng.sample(universe, rng.randint(2, 32)))
            k = rng.randint(1, len(free))
            chosen = policy.select(set(free), k)
            baseline = sorted(free)[:k]
            assert len(chosen) == k and set(chosen) <= free
            assert placement_score(chosen, TINY) <= placement_score(
                baseline, TINY) + 1e-12

    def test_insufficient_free_returns_none(self):
        assert TopologyAwarePlacement(TINY).select({1, 2}, 3) is None

    def test_avoids_flagged_when_clean_feasible(self):
        policy = TopologyAwarePlacement(TINY, alert_source=lambda: {0, 1})
        chosen = policy.select({0, 1, 2, 3, 4, 5}, 3)
        assert set(chosen).isdisjoint({0, 1})
        assert policy.stats.flagged_selected == 0
        assert policy.stats.flagged_despite_clean == 0

    def test_overflows_into_flagged_when_forced(self):
        policy = TopologyAwarePlacement(TINY, alert_source=lambda: {0, 1})
        chosen = policy.select({0, 1, 2}, 3)
        assert set(chosen) == {0, 1, 2}  # never refuses a feasible alloc
        assert policy.stats.flagged_selected == 2
        # ...but the forced overflow is not a clean-first violation.
        assert policy.stats.flagged_despite_clean == 0

    def test_monitor_style_alert_source(self):
        class Monitor:
            def predicted_failed(self, among):
                return [n for n in among if n % 2 == 0]

        policy = TopologyAwarePlacement(TINY, alert_source=Monitor())
        chosen = policy.select(set(range(8)), 3)
        assert all(n % 2 == 1 for n in chosen)

    def test_stats_accumulate(self):
        policy = TopologyAwarePlacement(TINY)
        policy.select(set(range(8)), 2)
        policy.select(set(range(8)), 4)
        assert policy.stats.selections == 2
        assert policy.stats.mean_score > 0.0


class TestPoolIntegration:
    def _job(self, job_id, n):
        return Job(job_id, f"j{job_id}", "u", n, 100.0, 100.0, 0.0)

    def test_pool_routes_allocation_through_policy(self):
        pool = NodePool(range(16), placement=TopologyAwarePlacement(TINY))
        nodes = pool.allocate(self._job(1, 2), now=0.0)
        assert placement_score(nodes, TINY) == 1.0  # one full board
        assert pool.n_free == 14
        pool.release(1)
        assert pool.n_free == 16

    def test_policy_and_heap_stay_consistent(self):
        # Policy picks bypass the heap; later first-fit-style pops must
        # skip the stale entries rather than double-allocating.
        pool = NodePool(range(16), placement=TopologyAwarePlacement(TINY))
        a = pool.allocate(self._job(1, 6), now=0.0)
        b = pool.allocate(self._job(2, 6), now=0.0)
        assert set(a).isdisjoint(b)
        assert pool.n_free == 4

    def test_exhausted_pool_rejected(self):
        pool = NodePool(range(4), placement=TopologyAwarePlacement(TINY))
        pool.allocate(self._job(1, 3), now=0.0)
        with pytest.raises(SchedulingError):
            pool.allocate(self._job(2, 2), now=0.0)


class TestBuildPlacement:
    def test_first_fit_is_native_path(self):
        assert build_placement("first-fit") is None

    def test_topology_builds_policy(self):
        policy = build_placement("topology", TINY)
        assert isinstance(policy, TopologyAwarePlacement)
        assert policy.topology is TINY

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            build_placement("round-robin")
