"""Tests for the per-tree broadcast memo.

A jitter-free tree result is a pure function of its root, its ordered
targets, its payload size and the down nodes among those targets; the
memo keeps one slot per ``(root, size)`` and hits exactly when the
targets and their own down set are unchanged.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, FailureModel
from repro.errors import ConfigurationError
from repro.network import FabricConfig, NetworkFabric, StarBroadcast, TreeBroadcast
from repro.network.broadcast import MemoizedBroadcast
from repro.rm import EslurmRM
from repro.sched.job import Job
from repro.simkit import Simulator
from repro.telemetry import facade as telemetry


def build(n=128, seed=0, jitter=0.0):
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(n_nodes=n).build(sim)
    fabric = NetworkFabric(sim, cluster, FabricConfig(jitter_frac=jitter))
    return sim, cluster, fabric


def shares(n=128, parts=4):
    """``parts`` disjoint trees over [1, n), each rooted at its head."""
    chunk = (n - 1) // parts
    tasks = []
    for p in range(parts):
        nodes = list(range(1 + p * chunk, 1 + (p + 1) * chunk))
        tasks.append((nodes[0], nodes[1:]))
    return tasks


def as_tuples(results):
    return [(r.structure, r.makespan_s, r.n_targets, r.failed, r.n_timeouts) for r in results]


class TestCaching:
    def test_hit_on_repeat_miss_on_first(self):
        _, _, fabric = build()
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        targets = list(range(1, 128))
        a = memo.simulate(0, targets, 1024, fabric)
        b = memo.simulate(0, targets, 1024, fabric)
        assert (memo.misses, memo.hits) == (1, 1)
        assert a.makespan_s == b.makespan_s
        assert a.failed == b.failed

    def test_different_keys_are_distinct(self):
        _, _, fabric = build()
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        targets = list(range(1, 128))
        memo.simulate(0, targets, 1024, fabric)
        memo.simulate(0, targets, 2048, fabric)  # size differs
        memo.simulate(0, targets[:-1], 1024, fabric)  # targets differ
        memo.simulate(1, targets[1:], 1024, fabric)  # root differs
        assert memo.misses == 4
        assert memo.hits == 0

    def test_reordered_targets_miss(self):
        # The tree shape follows the target order (an FP rearrangement
        # is only a reorder), so an equal node set is not enough.
        _, _, fabric = build()
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        targets = list(range(1, 128))
        memo.simulate(0, targets, 1024, fabric)
        memo.simulate(0, targets[::-1], 1024, fabric)
        assert (memo.misses, memo.hits) == (2, 0)

    def test_failed_target_invalidates_its_slot(self):
        _, cluster, fabric = build()
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        targets = list(range(1, 128))
        before = memo.simulate(0, targets, 1024, fabric)
        cluster.fail_nodes([5])
        after = memo.simulate(0, targets, 1024, fabric)
        assert memo.misses == 2  # node 5 is a target: its down set changed
        assert before.failed == ()
        assert after.failed == (5,)
        cluster.recover_nodes([5])
        again = memo.simulate(0, targets, 1024, fabric)
        assert memo.misses == 3
        assert again.failed == ()

    def test_liveness_change_outside_the_tree_hits(self):
        _, cluster, fabric = build()
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        targets = list(range(1, 100))
        first = memo.simulate(0, targets, 1024, fabric)
        cluster.fail_nodes([110, 120])  # not among the targets
        second = memo.simulate(0, targets, 1024, fabric)
        assert (memo.misses, memo.hits) == (1, 1)
        assert as_tuples([second]) == as_tuples([first])

    def test_returns_copies_not_cached_instance(self):
        _, _, fabric = build()
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        targets = list(range(1, 128))
        a = memo.simulate(0, targets, 1024, fabric)
        original = a.makespan_s
        a.makespan_s += 99.0  # callers add ack-wait in place
        a.arrivals[1] = -1.0
        b = memo.simulate(0, targets, 1024, fabric)
        assert memo.hits == 1
        assert b is not a
        assert b.makespan_s == original
        assert b.arrivals == {}

    def test_duplicate_targets_raise_on_a_miss(self):
        _, _, fabric = build()
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        with pytest.raises(ConfigurationError):
            memo.simulate(0, [1, 2, 2, 3], 1024, fabric)
        with pytest.raises(ConfigurationError):
            memo.simulate(0, [1, 2, 3], 0, fabric)
        assert (memo.misses, memo.hits) == (0, 0)

    def test_new_fabric_clears_cache(self):
        _, _, fabric_a = build(seed=1)
        _, _, fabric_b = build(seed=2)
        memo = MemoizedBroadcast(StarBroadcast())
        memo.simulate(0, [1, 2], 1024, fabric_a)
        memo.simulate(0, [1, 2], 1024, fabric_b)
        assert memo.misses == 2

    def test_jitter_bypasses_cache(self):
        _, _, fabric = build(jitter=0.2)
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        targets = list(range(1, 128))
        memo.simulate(0, targets, 1024, fabric)
        memo.simulate(0, targets, 1024, fabric)
        assert (memo.misses, memo.hits) == (0, 0)

    def test_record_arrivals_bypasses_cache(self):
        _, _, fabric = build()
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        targets = list(range(1, 128))
        memo.simulate(0, targets, 1024, fabric)
        res = memo.simulate(0, targets, 1024, fabric, record_arrivals=True)
        assert (memo.misses, memo.hits) == (1, 0)
        assert set(res.arrivals) == set(targets)


class TestTelemetryReplay:
    """An active session re-runs the plain engine: no lookups, and
    every metric recorded exactly as a cache-free run records it."""

    def test_matches_uncached_run(self):
        def run(engine):
            _, cluster, fabric = build()
            cluster.fail_nodes([9, 40])
            with telemetry.session() as tel:
                for _ in range(2):
                    engine.simulate_forest(shares(), 1024, fabric)
                    engine.simulate(0, list(range(1, 128)), 1024, fabric)
                return tel.snapshot()

        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        cached = run(memo)
        plain = run(TreeBroadcast(width=8))
        assert (memo.misses, memo.hits) == (0, 0)
        assert cached["counters"]["net.messages"] > 0
        assert cached["counters"] == plain["counters"]
        assert cached["histograms"] == plain["histograms"]

    def test_telemetry_off_entry_recomputed_when_on(self):
        _, _, fabric = build()
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        targets = list(range(1, 128))
        memo.simulate(0, targets, 1024, fabric)  # stored with no session
        with telemetry.session() as tel:
            memo.simulate(0, targets, 1024, fabric)
            assert tel.snapshot()["counters"]["net.messages"] > 0
        assert (memo.misses, memo.hits) == (1, 0)  # the slot was not served


class TestPerTree:
    def test_failure_in_one_tree_rewalks_only_that_tree(self):
        _, cluster, fabric = build()
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        plain = TreeBroadcast(width=8)
        tasks = shares()
        memo.simulate_forest(tasks, 1024, fabric)
        assert (memo.misses, memo.hits) == (4, 0)
        cluster.fail_nodes([tasks[2][1][0]])  # an inner node of tree 2
        after = memo.simulate_forest(tasks, 1024, fabric)
        assert (memo.misses, memo.hits) == (5, 3)
        assert as_tuples(after) == as_tuples(plain.simulate_forest(tasks, 1024, fabric))
        assert after[2].failed == (tasks[2][1][0],)

    def test_scalar_call_is_a_forest_of_one(self):
        _, _, fabric = build()
        memo = MemoizedBroadcast(TreeBroadcast(width=8))
        root, targets = shares(parts=1)[0]
        scalar = memo.simulate(root, targets, 2048, fabric)
        forest = memo.simulate_forest([(root, targets)], 2048, fabric)
        assert (memo.misses, memo.hits) == (1, 1)  # one slot serves both
        assert forest[0].makespan_s == scalar.makespan_s

    # each step: ("fail" | "recover", node) or ("reorder", tree, seed)
    step = st.one_of(
        st.tuples(st.sampled_from(["fail", "recover"]), st.integers(1, 127)),
        st.tuples(st.just("reorder"), st.integers(0, 3), st.integers(0, 2**16)),
    )

    @given(st.lists(step, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_random_liveness_and_order_sequences_match_plain(self, steps):
        _, cluster, fabric = build()
        memo = MemoizedBroadcast(TreeBroadcast(width=4))
        plain = TreeBroadcast(width=4)
        tasks = shares()
        for s in steps:
            if s[0] == "fail":
                cluster.fail_nodes([s[1]])
            elif s[0] == "recover":
                cluster.recover_nodes([s[1]])
            else:
                root, targets = tasks[s[1]]
                targets = list(targets)
                random.Random(s[2]).shuffle(targets)
                tasks[s[1]] = (root, targets)
            got = memo.simulate_forest(tasks, 1024, fabric)
            assert as_tuples(got) == as_tuples(plain.simulate_forest(tasks, 1024, fabric))
            root, targets = tasks[0]
            single = memo.simulate(root, targets, 1024, fabric)
            assert as_tuples([single]) == as_tuples([plain.simulate(root, targets, 1024, fabric)])
        assert memo.hits + memo.misses == 5 * len(steps)


class TestEslurmDay:
    def test_small_day_with_failures_pins_lookups(self):
        # No RM engine is memoized: the FP-Tree orderings go straight to
        # the tree engine.  The unchanged heartbeat shares never reach
        # it; the RM's share record replays them, construction
        # statistics included.
        sim = Simulator(seed=3)
        spec = ClusterSpec(n_nodes=512, n_satellites=8, failure_model=FailureModel())
        cluster = spec.build(sim)
        cluster.failures.start()
        rm = EslurmRM(sim, cluster)
        jobs = [
            Job(i, f"j{i}.sh", "u", 16 + 8 * (i % 5), 600.0 + 60 * i, 1800.0, 30.0 * i)
            for i in range(1, 11)
        ]
        rm.run_trace(jobs, until=24 * 3600.0)
        assert type(rm._fp_engine.engine) is TreeBroadcast
        assert not isinstance(rm._launch_engine, MemoizedBroadcast)
        assert not isinstance(rm._takeover_engine, MemoizedBroadcast)
        assert cluster.version == 3  # liveness changed mid-day
        stats = rm._fp_engine.stats
        assert (
            stats.trees_built,
            stats.nodes_placed,
            stats.predicted_total,
            stats.predicted_on_leaves,
        ) == (76, 3712, 5, 5)
        assert (rm.heartbeat_shares_reused, rm.heartbeat_shares_derived) == (34, 14)
