"""Tests for the health-monitoring / alert subsystem."""

import pytest

from repro.cluster import ClusterSpec, FailureModel
from repro.cluster.monitoring import MonitoringConfig
from repro.errors import ConfigurationError
from repro.simkit import Simulator

HOUR = 3600.0
DAY = 24 * HOUR


def build(n=100, monitoring=None, model=None, seed=0):
    sim = Simulator(seed=seed)
    spec = ClusterSpec(
        n_nodes=n,
        monitoring=monitoring or MonitoringConfig(),
        failure_model=model or FailureModel.disabled(),
    )
    return sim, spec.build(sim)


class TestConfig:
    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            MonitoringConfig(recall=1.5)
        with pytest.raises(ConfigurationError):
            MonitoringConfig(false_alarm_per_node_hour=-1)
        with pytest.raises(ConfigurationError):
            MonitoringConfig(alert_ttl_hours=0)
        with pytest.raises(ConfigurationError):
            MonitoringConfig(precursor_fraction=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"false_alarm_per_node_hour": float("inf")}, id="rate-inf"),
            pytest.param({"false_alarm_per_node_hour": float("nan")}, id="rate-nan"),
            pytest.param({"alert_ttl_hours": float("inf")}, id="ttl-inf"),
            pytest.param({"alert_ttl_hours": float("nan")}, id="ttl-nan"),
        ],
    )
    def test_non_finite_settings_rejected(self, kwargs):
        with pytest.raises(ConfigurationError, match="finite"):
            MonitoringConfig(**kwargs)


class TestAlerts:
    def test_raise_alert_marks_predicted(self):
        sim, cluster = build()
        cluster.monitor.raise_alert(5)
        assert cluster.monitor.predicted_failed() == {5}
        assert cluster.monitor.predicted_failed(among=[1, 5, 9]) == {5}
        assert cluster.monitor.predicted_failed(among=range(4, 6)) == {5}
        assert cluster.monitor.predicted_failed(among=range(5)) == set()

    def test_alert_expires_after_ttl(self):
        sim, cluster = build(monitoring=MonitoringConfig(alert_ttl_hours=1.0))
        cluster.monitor.raise_alert(3)
        sim.run(until=0.5 * HOUR)
        assert 3 in cluster.monitor.predicted_failed()
        sim.run(until=2 * HOUR)
        assert cluster.monitor.predicted_failed() == set()

    def test_alert_carries_indicator(self):
        sim, cluster = build()
        cluster.monitor.raise_alert(1, indicator="temperature")
        assert cluster.monitor.alerts[0].indicator == "temperature"
        cluster.monitor.raise_alert(2)  # sampled indicator
        assert cluster.monitor.alerts[1].indicator


class TestPrecursorAlerts:
    def test_perfect_recall_alerts_before_failure(self):
        sim, cluster = build(monitoring=MonitoringConfig(recall=1.0))
        cluster.monitor.on_failure_scheduled([7, 8], at=sim.now + 100.0)
        sim.run(until=200.0)
        assert {7, 8} <= cluster.monitor.predicted_failed()

    def test_zero_recall_never_alerts(self):
        sim, cluster = build(monitoring=MonitoringConfig(recall=0.0))
        cluster.monitor.on_failure_scheduled(list(range(50)), at=sim.now + 10.0)
        sim.run(until=100.0)
        assert cluster.monitor.predicted_failed() == set()

    def test_recall_fraction_observed(self):
        sim, cluster = build(n=2000, monitoring=MonitoringConfig(recall=0.8), seed=5)
        cluster.monitor.on_failure_scheduled(list(range(2000)), at=sim.now + 1.0)
        sim.run(until=10.0)
        frac = len(cluster.monitor.predicted_failed()) / 2000
        assert 0.75 < frac < 0.85

    def test_immediate_failure_alerts_now(self):
        sim, cluster = build(monitoring=MonitoringConfig(recall=1.0))
        cluster.monitor.on_failure_scheduled([1], at=sim.now)  # zero lead
        assert 1 in cluster.monitor.predicted_failed()


class TestFalseAlarms:
    def test_false_alarm_rate(self):
        # 100 nodes * 0.01/h = 1/h -> ~24/day
        cfg = MonitoringConfig(false_alarm_per_node_hour=0.01)
        sim, cluster = build(n=100, monitoring=cfg, seed=6)
        cluster.monitor.start()
        sim.run(until=10 * DAY)
        count = cluster.monitor.alert_count()
        assert 150 < count < 350
        assert all(alert.spurious for alert in cluster.monitor.alerts)

    def test_start_noop_when_rate_zero(self):
        cfg = MonitoringConfig(false_alarm_per_node_hour=0.0)
        sim, cluster = build(monitoring=cfg)
        cluster.monitor.start()
        sim.run(until=DAY)
        assert cluster.monitor.alert_count() == 0


class TestIntegrationWithInjector:
    def test_failures_produce_precursor_alerts(self):
        model = FailureModel(mtbf_node_hours=50.0, repair_hours=1.0, burst_per_day=0)
        cfg = MonitoringConfig(recall=1.0)
        sim = Simulator(seed=7)
        cluster = ClusterSpec(n_nodes=100, failure_model=model, monitoring=cfg).build(sim)
        cluster.failures.start()
        sim.run(until=2 * DAY)
        failed_ever = set()
        for ev in cluster.failures.events:
            failed_ever.update(ev.node_ids)
        assert failed_ever
        alerted_ever = {a.node_id for a in cluster.monitor.alerts}
        # recall=1.0: every failed node must have alerted at some point
        assert failed_ever <= alerted_ever
