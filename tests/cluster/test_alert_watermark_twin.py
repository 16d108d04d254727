"""The alert-expiry watermark against the full prune it replaced.

``HealthMonitor.predicted_failed`` prunes expired alerts only once the
clock reaches ``_next_expiry``, a watermark no later than any live
alert's expiry; the reference walks every outstanding alert on every
read.  Two monitors over one simulator take the same raises, re-raises
and reads at random times, reads landing exactly on an expiry among
them: every returned set, the alert dict (order included) and the
alert column must match, and the watermark must stay a lower bound.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, FailureModel
from repro.cluster.monitoring import HOUR, HealthMonitor, MonitoringConfig
from repro.simkit import Simulator

N_NODES = 40


class FullPruneMonitor(HealthMonitor):
    """``predicted_failed`` as it was: every read walks every alert."""

    def predicted_failed(self, among=None):
        now = self.sim.now
        expired = [nid for nid, exp in self._alerted.items() if exp <= now]
        if expired:
            for nid in expired:
                del self._alerted[nid]
            self._alert_col[expired] = False
        if among is None:
            return set(self._alerted)
        if isinstance(among, range):
            return {nid for nid in self._alerted if nid in among}
        if isinstance(among, np.ndarray):
            return set(among[self._alert_col.take(among, mode="clip")].tolist())
        return self._alerted.keys() & among


node = st.integers(0, N_NODES - 1)
reads = st.sampled_from(["all", "range", "array", "set"])
steps = st.lists(
    st.one_of(
        st.tuples(st.just("raise"), node),
        st.tuples(st.just("wait"), st.floats(0.0, 2.0)),
        st.tuples(st.just("to_expiry"), st.none()),
        st.tuples(st.just("read"), reads),
    ),
    max_size=60,
)


def build(config):
    sim = Simulator(seed=0)
    spec = ClusterSpec(n_nodes=N_NODES, monitoring=config, failure_model=FailureModel.disabled())
    return sim, spec.build(sim)


def read(monitor, kind):
    if kind == "all":
        return monitor.predicted_failed()
    if kind == "range":
        return monitor.predicted_failed(range(5, 30))
    if kind == "array":
        return monitor.predicted_failed(np.arange(0, N_NODES + 1, 3, dtype=np.int64))
    return monitor.predicted_failed({1, 2, 3, 17, 39})


class TestTwin:
    @given(steps, st.sampled_from([0.5, 1.0, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_watermark_equals_full_prune(self, steps, ttl_hours):
        config = MonitoringConfig(alert_ttl_hours=ttl_hours, false_alarm_per_node_hour=0.0)
        sim, cluster = build(config)
        monitor = HealthMonitor(sim, cluster, config)
        ref = FullPruneMonitor(sim, cluster, config)
        for op, arg in steps:
            if op == "raise":
                monitor.raise_alert(arg, indicator="temperature")
                ref.raise_alert(arg, indicator="temperature")
            elif op == "wait":
                sim.run(until=sim.now + arg * HOUR)
            elif op == "to_expiry":
                # land exactly on the soonest expiry still ahead, if any
                ahead = [exp for exp in ref._alerted.values() if exp > sim.now]
                sim.run(until=min(ahead, default=sim.now))
            else:
                assert read(monitor, arg) == read(ref, arg)
            # both prune at every read where an alert is due, so they
            # agree between reads too
            assert list(monitor._alerted.items()) == list(ref._alerted.items())
            assert np.array_equal(monitor._alert_col, ref._alert_col)
            assert monitor._next_expiry <= min(monitor._alerted.values(), default=math.inf)


class TestWatermark:
    def test_reads_before_the_watermark_do_not_walk(self):
        sim, cluster = build(MonitoringConfig(false_alarm_per_node_hour=0.0))
        monitor = cluster.monitor
        monitor.raise_alert(3, indicator="fan-speed")
        ttl_s = monitor.config.alert_ttl_hours * HOUR
        assert monitor._next_expiry == ttl_s
        sim.run(until=1.0)
        monitor.raise_alert(5, indicator="fan-speed")
        assert monitor._next_expiry == ttl_s  # a later expiry leaves it
        sim.run(until=ttl_s)
        assert monitor.predicted_failed() == {5}
        assert monitor._next_expiry == ttl_s + 1.0
        sim.run(until=ttl_s + 1.0)
        assert monitor.predicted_failed() == set()
        assert monitor._next_expiry == math.inf
