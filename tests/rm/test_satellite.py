"""Tests for the satellite state machine, Eq. 1, and failover."""

import pytest

from repro.cluster import ClusterSpec
from repro.errors import ConfigurationError
from repro.rm.eslurm import SATELLITE_PROFILE, EslurmRM
from repro.rm.satellite import (
    FAULT_TIMEOUT_S,
    SatelliteDaemon,
    SatelliteEvent,
    SatellitePool,
    SatelliteState,
)
from repro.simkit import Simulator


def pool(n_sats=4, n_nodes=64, seed=0):
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(n_nodes=n_nodes, n_satellites=n_sats).build(sim)
    return sim, cluster, SatellitePool(sim, cluster, SATELLITE_PROFILE, width=8)


class TestStateMachine:
    def daemon(self):
        sim, cluster, _ = pool(1)
        return sim, SatelliteDaemon(sim, cluster, cluster.satellite_ids[0], SATELLITE_PROFILE)

    def test_initial_state_unknown(self):
        _, d = self.daemon()
        assert d.state is SatelliteState.UNKNOWN

    def test_heartbeat_discovers(self):
        _, d = self.daemon()
        d.heartbeat()
        assert d.state is SatelliteState.RUNNING

    def test_bt_lifecycle(self):
        _, d = self.daemon()
        d.heartbeat()
        d.handle(SatelliteEvent.BT_START)
        assert d.state is SatelliteState.BUSY
        d.handle(SatelliteEvent.BT_SUCCESS)
        assert d.state is SatelliteState.RUNNING

    def test_bt_failure_goes_fault(self):
        _, d = self.daemon()
        d.heartbeat()
        d.handle(SatelliteEvent.BT_START)
        d.handle(SatelliteEvent.BT_FAILURE)
        assert d.state is SatelliteState.FAULT

    def test_fault_recovers_on_hb_success(self):
        _, d = self.daemon()
        d.heartbeat()
        d.handle(SatelliteEvent.HB_FAILURE)
        assert d.state is SatelliteState.FAULT
        d.heartbeat()  # node is responsive -> HB_SUCCESS
        assert d.state is SatelliteState.RUNNING

    def test_fault_times_out_to_down(self):
        sim, d = self.daemon()
        d.heartbeat()
        d.cluster.fail_nodes([d.node_id])
        d.heartbeat()
        assert d.state is SatelliteState.FAULT
        sim.run(until=FAULT_TIMEOUT_S + 1)
        d.heartbeat()
        assert d.state is SatelliteState.DOWN

    def test_down_needs_admin(self):
        sim, d = self.daemon()
        d.handle(SatelliteEvent.SHUTDOWN)
        assert d.state is SatelliteState.DOWN
        d.heartbeat()  # heartbeats do not revive DOWN satellites
        assert d.state is SatelliteState.DOWN
        d.revive()
        assert d.state is SatelliteState.UNKNOWN

    def test_shutdown_from_any_state(self):
        _, d = self.daemon()
        d.heartbeat()
        d.handle(SatelliteEvent.BT_START)
        d.handle(SatelliteEvent.SHUTDOWN)
        assert d.state is SatelliteState.DOWN


class TestRevive:
    def test_revive_goes_through_the_cluster(self):
        # A revived satellite's node must leave every liveness cache
        # (the fabric's down set, the heartbeat gate's version), and
        # the DOWN -> UNKNOWN step must reach the transition audit.
        sim = Simulator(seed=0)
        cluster = ClusterSpec(n_nodes=64, n_satellites=2).build(sim)
        rm = EslurmRM(sim, cluster)
        d = rm.sat_pool.daemons[0]
        seen = []
        d.transition_observers.append(lambda _, old, event, new: seen.append((old, event, new)))
        sat_id = d.node_id
        cluster.fail_nodes([sat_id])
        assert sat_id in rm.fabric.unreachable_ids()
        d.handle(SatelliteEvent.SHUTDOWN)
        version = cluster.version
        d.revive()
        assert cluster.is_responsive(sat_id)
        assert d.state is SatelliteState.UNKNOWN
        assert cluster.version > version
        assert sat_id not in cluster.unresponsive_ids()
        assert sat_id not in rm.fabric.unreachable_ids()
        assert seen[-1] == (SatelliteState.DOWN, SatelliteEvent.REVIVE, SatelliteState.UNKNOWN)
        d.heartbeat()
        assert d.state is SatelliteState.RUNNING


class TestEq1:
    def test_small_broadcast_one_satellite(self):
        _, _, p = pool(n_sats=4)  # width 8, m=4
        assert p.compute_n(1) == 1
        assert p.compute_n(8) == 1

    def test_medium_broadcast_scales(self):
        _, _, p = pool(n_sats=4)
        assert p.compute_n(9) == 2  # ceil(9/8)
        assert p.compute_n(24) == 3

    def test_large_broadcast_all_satellites(self):
        _, _, p = pool(n_sats=4)
        assert p.compute_n(32) == 4  # s >= m*w
        assert p.compute_n(1000) == 4

    def test_zero_targets(self):
        _, _, p = pool()
        assert p.compute_n(0) == 0


class TestSplit:
    def test_even_split(self):
        parts = SatellitePool.split(list(range(12)), 3)
        assert [len(x) for x in parts] == [4, 4, 4]
        assert sum(parts, []) == list(range(12))

    def test_uneven_split_front_loaded(self):
        parts = SatellitePool.split(list(range(10)), 3)
        assert [len(x) for x in parts] == [4, 3, 3]

    def test_more_parts_than_items(self):
        parts = SatellitePool.split([1, 2], 5)
        assert parts == [[1], [2]]


class TestFailover:
    @staticmethod
    def complete(pool_, n_nodes=4):
        """assign_task + BT_SUCCESS, as the engine does per relayed task."""
        d = pool_.assign_task(n_nodes)
        if d is not None:
            d.handle(SatelliteEvent.BT_SUCCESS)
        return d

    def test_round_robin_rotation(self):
        _, _, p = pool(n_sats=3)
        p.heartbeat_all()
        picks = [self.complete(p).name for _ in range(6)]
        assert picks[:3] == picks[3:6]
        assert len(set(picks[:3])) == 3

    def test_busy_satellite_not_picked(self):
        _, _, p = pool(n_sats=2)
        p.heartbeat_all()
        first = p.assign_task(4)  # stays BUSY: no BT_SUCCESS yet
        second = p.assign_task(4)
        assert first is not second

    def test_dead_satellite_skipped_via_failover(self):
        _, cluster, p = pool(n_sats=3)
        p.heartbeat_all()
        cluster.fail_nodes(cluster.satellite_ids[:1])  # dies *after* being marked RUNNING
        chosen = {self.complete(p).name for _ in range(4)}
        assert cluster.name_of(cluster.satellite_ids[0]) not in chosen
        # the dead one transitioned to FAULT on its BT failure
        assert p.daemons[0].state is SatelliteState.FAULT

    def test_master_takeover_when_all_dead(self):
        _, cluster, p = pool(n_sats=2)
        p.heartbeat_all()
        cluster.fail_nodes(cluster.satellite_ids)
        assert p.assign_task(4) is None
        assert p.master_takeovers == 1

    def test_stats_accumulate(self):
        _, _, p = pool(n_sats=2)
        p.heartbeat_all()
        self.complete(p, 10)
        self.complete(p, 20)
        total = sum(d.stats.tasks_received for d in p.daemons)
        nodes = sum(d.stats.nodes_in_tasks for d in p.daemons)
        assert total == 2
        assert nodes == 30

    def test_no_satellites_rejected(self):
        sim = Simulator()
        cluster = ClusterSpec(n_nodes=8, n_satellites=0).build(sim)
        with pytest.raises(ConfigurationError):
            SatellitePool(sim, cluster, SATELLITE_PROFILE)

    def test_takeover_after_two_reallocations(self):
        """Section III: initial try + max_reallocations (2) retries, then
        the master takes over — even if a fourth satellite is healthy."""
        _, cluster, p = pool(n_sats=4)
        p.heartbeat_all()
        # dead but still marked RUNNING until tried
        cluster.fail_nodes(cluster.satellite_ids[:3])
        assert p.assign_task(4) is None
        assert p.master_takeovers == 1
        assert sum(d.stats.tasks_failed for d in p.daemons) == 1 + p.max_reallocations
        # The three tried satellites transitioned to FAULT on BT failure.
        assert [d.state for d in p.daemons[:3]] == [SatelliteState.FAULT] * 3
        assert p.daemons[3].state is SatelliteState.RUNNING

    def test_down_satellite_skipped_without_burning_retry(self):
        """A DOWN satellite is invisible to the rotation: it is never
        tried, so it consumes no reallocation attempts."""
        _, cluster, p = pool(n_sats=3)
        p.heartbeat_all()
        p.daemons[0].handle(SatelliteEvent.SHUTDOWN)
        picks = [self.complete(p).name for _ in range(6)]
        assert cluster.name_of(cluster.satellite_ids[0]) not in picks
        assert len(set(picks)) == 2  # the two live ones alternate
        assert p.master_takeovers == 0
        assert sum(d.stats.tasks_failed for d in p.daemons) == 0
        assert p.daemons[0].stats.tasks_received == 0
