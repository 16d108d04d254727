"""Tests for the ring/star/shared-memory/tree broadcast engines."""

import pytest

from repro.cluster import ClusterSpec
from repro.errors import ConfigurationError
from repro.network import (
    NetworkFabric,
    RingBroadcast,
    SharedMemoryBroadcast,
    StarBroadcast,
    TreeBroadcast,
)
from repro.network.fabric import DEAD_NODE_PENALTY_S
from repro.simkit import Simulator


def build(n=256, seed=0):
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(n_nodes=n).build(sim)
    fabric = NetworkFabric(sim, cluster)
    return sim, cluster, fabric


ENGINES = [RingBroadcast(), StarBroadcast(), SharedMemoryBroadcast(), TreeBroadcast(width=8)]


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.name)
class TestCommonBehaviour:
    def test_all_live_nodes_delivered(self, engine):
        _, cluster, fabric = build(n=64)
        targets = list(range(1, 64))
        res = engine.simulate(0, targets, 1024, fabric)
        assert res.failed == ()
        assert res.n_targets == 63
        assert res.makespan_s > 0

    def test_failed_nodes_reported(self, engine):
        _, cluster, fabric = build(n=64)
        cluster.fail_nodes([5, 10, 20])
        res = engine.simulate(0, list(range(1, 64)), 1024, fabric)
        assert set(res.failed) == {5, 10, 20}
        assert res.n_targets == 63

    def test_empty_targets(self, engine):
        _, _, fabric = build(n=8)
        res = engine.simulate(0, [], 1024, fabric)
        assert res.n_targets == 0
        assert res.failed == ()

    def test_duplicate_targets_rejected(self, engine):
        _, _, fabric = build(n=8)
        with pytest.raises(ConfigurationError):
            engine.simulate(0, [1, 1], 1024, fabric)

    def test_invalid_size_rejected(self, engine):
        _, _, fabric = build(n=8)
        with pytest.raises(ConfigurationError):
            engine.simulate(0, [1], 0, fabric)

    def test_arrivals_recorded_on_request(self, engine):
        _, _, fabric = build(n=16)
        res = engine.simulate(0, list(range(1, 16)), 1024, fabric, record_arrivals=True)
        assert set(res.arrivals) == set(range(1, 16))
        assert all(at <= res.makespan_s + 1e-9 for at in res.arrivals.values())

    def test_deterministic(self, engine):
        r1 = build(n=64, seed=3)
        r2 = build(n=64, seed=3)
        res1 = engine.simulate(0, list(range(1, 64)), 2048, r1[2])
        res2 = engine.simulate(0, list(range(1, 64)), 2048, r2[2])
        assert res1.makespan_s == res2.makespan_s


class TestFailureSensitivity:
    """Fig. 8b's qualitative claims as invariants."""

    def sweep(self, engine, fractions, n=512, seed=7):
        times = []
        for frac in fractions:
            sim, cluster, fabric = build(n=n, seed=seed)
            cluster.fail_fraction(frac)
            res = engine.simulate(0, list(range(1, n)), 4096, fabric)
            times.append(res.makespan_s)
        return times

    def test_ring_grows_strongly_with_failures(self):
        t0, t30 = self.sweep(RingBroadcast(), [0.0, 0.3])
        assert t30 > t0 + 100  # 30% of 512 nodes x 4s penalty, fully serial

    def test_star_grows_with_failures(self):
        t0, t30 = self.sweep(StarBroadcast(concurrency=64), [0.0, 0.3])
        assert t30 > 2 * t0

    def test_shared_memory_flat_under_failures(self):
        t0, t30 = self.sweep(SharedMemoryBroadcast(), [0.0, 0.3])
        assert t30 == pytest.approx(t0, rel=0.05)

    def test_tree_grows_with_failures(self):
        t0, t30 = self.sweep(TreeBroadcast(width=16), [0.0, 0.3])
        assert t30 > 2 * t0


class TestRing:
    def test_serial_latency_scales_with_n(self):
        _, _, fabric = build(n=512)
        short = RingBroadcast().simulate(0, list(range(1, 65)), 1024, fabric)
        long = RingBroadcast().simulate(0, list(range(1, 512)), 1024, fabric)
        assert long.makespan_s > 5 * short.makespan_s

    def test_dead_node_adds_full_penalty(self):
        _, cluster, fabric = build(n=16)
        base = RingBroadcast().simulate(0, list(range(1, 16)), 1024, fabric).makespan_s
        cluster.fail_nodes([8])
        withfail = RingBroadcast().simulate(0, list(range(1, 16)), 1024, fabric).makespan_s
        assert withfail == pytest.approx(
            base - fabric.transfer_delay(7, 8, 1024) + DEAD_NODE_PENALTY_S,
            rel=0.2,
        )


class TestStar:
    def test_concurrency_speeds_up(self):
        _, _, fabric = build(n=512)
        slow = StarBroadcast(concurrency=1).simulate(0, list(range(1, 512)), 1024, fabric)
        fast = StarBroadcast(concurrency=64).simulate(0, list(range(1, 512)), 1024, fabric)
        assert fast.makespan_s < slow.makespan_s / 10

    def test_invalid_concurrency(self):
        with pytest.raises(ConfigurationError):
            StarBroadcast(concurrency=0)


class TestSharedMemory:
    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            SharedMemoryBroadcast(poll_interval_s=0)

    def test_makespan_dominated_by_poll(self):
        _, _, fabric = build(n=64)
        engine = SharedMemoryBroadcast(poll_interval_s=2.0, post_overhead_s=0.1)
        res = engine.simulate(0, list(range(1, 64)), 1024, fabric)
        assert res.makespan_s == pytest.approx(2.1, abs=0.05)


class TestTree:
    def test_logarithmic_scaling(self):
        _, _, fabric = build(n=4096)
        t64 = TreeBroadcast(width=16).simulate(0, list(range(1, 64)), 1024, fabric).makespan_s
        t4096 = TreeBroadcast(width=16).simulate(0, list(range(1, 4096)), 1024, fabric).makespan_s
        # 64x more nodes should cost far less than 64x more time
        assert t4096 < 10 * t64

    def test_inner_failure_worse_than_leaf_failure(self):
        # Node at list position 0 of targets is the first inner child;
        # the last position is a leaf.
        n = 256
        _, cluster, fabric = build(n=n)
        targets = list(range(1, n))
        engine = TreeBroadcast(width=8)

        cluster.fail_nodes([targets[0]])  # inner node (first-layer child)
        inner = engine.simulate(0, targets, 1024, fabric).makespan_s
        cluster.recover_nodes([targets[0]])

        cluster.fail_nodes([targets[-1]])  # leaf
        leaf = engine.simulate(0, targets, 1024, fabric).makespan_s
        assert inner > leaf

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            TreeBroadcast(width=1)


def scalar_tree(width=8, per_target_root_s=0.0):
    engine = TreeBroadcast(width=width, per_target_root_s=per_target_root_s)
    # Instance attribute shadows the class threshold: force the recursive walk.
    engine.FAST_PATH_MIN_TARGETS = 10**9
    return engine


class TestTreeVectorizedEquivalence:
    """The numpy level-order walk must reproduce the recursion bit-for-bit."""

    @pytest.mark.parametrize("width", [2, 8, 32])
    @pytest.mark.parametrize("n", [64, 65, 256, 1000])
    def test_all_alive(self, width, n):
        _, _, fabric = build(n=n)
        targets = list(range(1, n))
        fast = TreeBroadcast(width=width).simulate(0, targets, 4096, fabric)
        slow = scalar_tree(width=width).simulate(0, targets, 4096, fabric)
        assert fast.makespan_s == slow.makespan_s  # bit-identical, not approx
        assert fast.failed == slow.failed
        assert fast.n_timeouts == slow.n_timeouts

    @pytest.mark.parametrize("width", [2, 8, 32])
    @pytest.mark.parametrize("n", [64, 65])
    def test_inner_failure_at_threshold(self, width, n, monkeypatch):
        # 63 and 64 targets: the target count alone picks the recursion
        # or the sweep, and both land on the same result.
        swept = []
        sweep = TreeBroadcast._sweep
        monkeypatch.setattr(
            TreeBroadcast, "_sweep", lambda self, *a, **kw: swept.append(1) or sweep(self, *a, **kw)
        )
        _, cluster, fabric = build(n=n)
        cluster.fail_nodes([1])  # position 1 is inner at every width
        targets = list(range(1, n))
        fast = TreeBroadcast(width=width).simulate(0, targets, 4096, fabric)
        slow = scalar_tree(width=width).simulate(0, targets, 4096, fabric)
        assert len(swept) == (len(targets) >= TreeBroadcast.FAST_PATH_MIN_TARGETS)
        assert fast.makespan_s == slow.makespan_s
        assert fast.failed == slow.failed == (1,)

    @pytest.mark.parametrize("width", [2, 8, 32])
    def test_with_leaf_and_inner_failures(self, width):
        _, cluster, fabric = build(n=512)
        # id 1 roots the first subtree (inner); the rest hit leaves/mid levels.
        cluster.fail_nodes([1, 17, 100, 101, 255, 511])
        targets = list(range(1, 512))
        fast = TreeBroadcast(width=width).simulate(0, targets, 4096, fabric)
        slow = scalar_tree(width=width).simulate(0, targets, 4096, fabric)
        assert fast.makespan_s == slow.makespan_s
        assert fast.failed == slow.failed  # same *order*, not just same set
        assert fast.n_timeouts == slow.n_timeouts

    def test_with_many_failures(self):
        _, cluster, fabric = build(n=1024)
        cluster.fail_nodes(list(range(7, 1024, 7)))
        targets = list(range(1, 1024))
        fast = TreeBroadcast(width=16).simulate(0, targets, 4096, fabric)
        slow = scalar_tree(width=16).simulate(0, targets, 4096, fabric)
        assert fast.makespan_s == slow.makespan_s
        assert fast.failed == slow.failed

    def test_arrivals_match(self):
        _, cluster, fabric = build(n=256)
        cluster.fail_nodes([3, 64])
        targets = list(range(1, 256))
        fast = TreeBroadcast(width=8).simulate(0, targets, 4096, fabric, record_arrivals=True)
        slow = scalar_tree(width=8).simulate(0, targets, 4096, fabric, record_arrivals=True)
        assert fast.arrivals == slow.arrivals

    def test_per_target_root_cost(self):
        _, _, fabric = build(n=128)
        targets = list(range(1, 128))
        fast = TreeBroadcast(width=8, per_target_root_s=1e-4).simulate(0, targets, 4096, fabric)
        slow = scalar_tree(width=8, per_target_root_s=1e-4).simulate(0, targets, 4096, fabric)
        assert fast.makespan_s == slow.makespan_s

    def test_small_broadcasts_stay_scalar(self):
        _, _, fabric = build(n=64)
        engine = TreeBroadcast(width=8)
        targets = list(range(1, 32))  # below FAST_PATH_MIN_TARGETS
        res = engine.simulate(0, targets, 1024, fabric)
        ref = scalar_tree(width=8).simulate(0, targets, 1024, fabric)
        assert res.makespan_s == ref.makespan_s
