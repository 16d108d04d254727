"""Tests for failure injection."""

import pytest

from repro.cluster import ClusterSpec, FailureModel
from repro.errors import ConfigurationError
from repro.simkit import Simulator

HOUR = 3600.0
DAY = 24 * HOUR


def build(n=100, model=None, seed=0):
    sim = Simulator(seed=seed)
    spec = ClusterSpec(n_nodes=n, failure_model=model or FailureModel())
    return sim, spec.build(sim)


class TestFailureModel:
    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            FailureModel(mtbf_node_hours=0)
        with pytest.raises(ConfigurationError):
            FailureModel(repair_hours=-1)
        with pytest.raises(ConfigurationError):
            FailureModel(burst_size_mean=0)

    def test_disabled_model_injects_nothing(self):
        sim, cluster = build(model=FailureModel.disabled())
        cluster.failures.start()
        sim.run(until=10 * DAY)
        assert cluster.failures.events == []


class TestPointFailures:
    def test_rate_roughly_matches_mtbf(self):
        # 100 nodes, MTBF 100 h -> ~1 failure/h -> ~240 over 10 days
        model = FailureModel(mtbf_node_hours=100.0, repair_hours=0.5, burst_per_day=0)
        sim, cluster = build(n=100, model=model, seed=1)
        cluster.failures.start()
        sim.run(until=10 * DAY)
        count = cluster.failures.failures_injected()
        assert 150 < count < 350

    def test_nodes_recover(self):
        model = FailureModel(mtbf_node_hours=50.0, repair_hours=0.1, burst_per_day=0)
        sim, cluster = build(n=50, model=model, seed=2)
        cluster.failures.start()
        sim.run(until=2 * DAY)
        assert cluster.failures.failures_injected() > 0
        # with 6-minute repairs almost everything should be back up
        assert len(cluster.down_ids()) < 0.1 * cluster.n_nodes

    def test_listener_sees_failures_and_recoveries(self):
        model = FailureModel(mtbf_node_hours=20.0, repair_hours=0.1, burst_per_day=0)
        sim, cluster = build(n=50, model=model, seed=3)
        seen = []
        cluster.failures.subscribe(lambda kind, ids, time: seen.append(kind))
        cluster.failures.start()
        sim.run(until=DAY)
        assert "point" in seen
        assert "recover" in seen


class TestBurstFailures:
    def test_burst_takes_out_block(self):
        model = FailureModel(
            mtbf_node_hours=1e12,  # effectively no point failures
            burst_per_day=5.0,
            burst_size_mean=10.0,
            repair_hours=100.0,  # stay down so we can observe
        )
        sim, cluster = build(n=200, model=model, seed=4)
        cluster.failures.start()
        sim.run(until=2 * DAY)
        bursts = [ev for ev in cluster.failures.events if ev.kind == "burst"]
        assert bursts
        for ev in bursts:
            ids = list(ev.node_ids)
            assert ids == list(range(ids[0], ids[0] + len(ids)))  # contiguous


class TestMaintenance:
    def test_scheduled_maintenance(self):
        sim, cluster = build(n=100, model=FailureModel.disabled())
        cluster.failures.schedule_maintenance(at=HOUR, node_ids=range(10, 30), duration=HOUR)
        sim.run(until=1.5 * HOUR)
        assert cluster.down_ids() == set(range(10, 30))
        sim.run(until=3 * HOUR)
        assert cluster.down_ids() == set()
        assert cluster.failures.events[0].kind == "maintenance"

    def test_empty_maintenance_rejected(self):
        sim, cluster = build()
        with pytest.raises(ConfigurationError):
            cluster.failures.schedule_maintenance(at=1.0, node_ids=[], duration=1.0)

    def test_start_idempotent(self):
        sim, cluster = build(n=10)
        cluster.failures.start()
        cluster.failures.start()  # second call must not double processes
        before = len(sim._heap)
        assert before >= 1


class TestDeterminism:
    def test_same_seed_same_failure_log(self):
        model = FailureModel(mtbf_node_hours=100.0, burst_per_day=1.0)
        logs = []
        for _ in range(2):
            sim, cluster = build(n=100, model=model, seed=9)
            cluster.failures.start()
            sim.run(until=5 * DAY)
            logs.append([(ev.time, ev.kind, ev.node_ids) for ev in cluster.failures.events])
        assert logs[0] == logs[1]
