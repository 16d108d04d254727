"""Telemetry units: metrics, sessions, the off-by-default posture, and
the determinism of a recorded run."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry import facade as telemetry


class TestCounter:
    def test_inc_and_snapshot(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.snapshot() == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter("x").inc(-1.0)



class TestGauge:
    def test_tracks_extremes(self):
        g = Gauge("depth")
        for v in (5.0, 1.0, 9.0):
            g.set(v)
        assert g.snapshot() == {"last": 9.0, "min": 1.0, "max": 9.0, "n": 3}

    def test_empty_snapshot_is_zeroes(self):
        assert Gauge("d").snapshot() == {"last": 0.0, "min": 0.0, "max": 0.0, "n": 0}


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == {"1.0": 1, "10.0": 1, "inf": 1}
        assert snap["min"] == 0.5 and snap["max"] == 50.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("a", bounds=(2.0, 1.0))

    def test_observe_many_matches_scalar_observe(self):
        import numpy as np

        values = np.array([0.5, 5.0, 50.0, 1.0, 9.999, 10.0, 1e-9, 7.25])
        batched = Histogram("lat", bounds=(1.0, 10.0))
        batched.observe_many(values)
        scalar = Histogram("lat", bounds=(1.0, 10.0))
        for v in values.tolist():
            scalar.observe(v)
        # Bit-identical, including the float total: observe_many must
        # accumulate in input order, not via pairwise numpy summation.
        assert batched.snapshot() == scalar.snapshot()
        assert batched.total == scalar.total

    def test_observe_many_empty(self):
        import numpy as np

        h = Histogram("lat", bounds=(1.0, 10.0))
        h.observe_many(np.array([]))
        assert h.count == 0

    def test_observe_many_then_observe_compose(self):
        import numpy as np

        h = Histogram("lat", bounds=(1.0, 10.0))
        h.observe_many(np.array([0.5, 5.0]))
        h.observe(50.0)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == {"1.0": 1, "10.0": 1, "inf": 1}
        assert snap["min"] == 0.5 and snap["max"] == 50.0


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_snapshot_sorted_and_sectioned(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(2.0)
        snap = reg.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["a", "b"]


class TestNullSinkPosture:
    """Off by default: no session, and every wrapper is a no-op."""

    def test_off_by_default(self):
        assert telemetry.active() is None

    def test_wrappers_are_noops_when_off(self):
        # must not raise, must not start a session
        telemetry.count("x")
        telemetry.gauge("x", 1.0)
        telemetry.observe("x", 1.0)
        assert telemetry.active() is None

    def test_session_scopes_and_restores(self):
        assert telemetry.active() is None
        with telemetry.session() as tel:
            assert telemetry.active() is tel
            telemetry.count("hits")
            assert tel.snapshot()["counters"]["hits"] == 1.0
        assert telemetry.active() is None

    def test_sessions_nest(self):
        with telemetry.session() as outer:
            with telemetry.session() as inner:
                assert telemetry.active() is inner
            assert telemetry.active() is outer


class TestInstrumentedSimulation:
    def test_simulation_identical_with_and_without_telemetry(self):
        import contextlib

        from repro.api import (
            SimulationConfig,
            TelemetryConfig,
            quick_cluster,
            run_rm_day,
            run_simulation,
        )
        from repro.oracle.golden import TraceDigest

        base = SimulationConfig(rm="slurm", n_nodes=64, seed=5, n_jobs=40, horizon_s=6 * 3600.0)
        plain = run_simulation(base)
        measured = run_simulation(
            base, telemetry=TelemetryConfig(enabled=True)
        )
        assert plain.telemetry is None
        assert measured.telemetry is not None
        assert measured.telemetry["counters"]["sim.events"] > 0
        # the measurement must not perturb the simulation
        assert plain.report.master == measured.report.master
        assert plain.report.schedule == measured.report.schedule

        # ...nor the event stream: the same world driven by hand exposes
        # the kernel, whose count and golden trace digest must agree
        def kernel_run(enabled):
            scope = telemetry.session() if enabled else contextlib.nullcontext()
            with scope as tel:
                cluster = quick_cluster(n_nodes=64, seed=5)
                digest = TraceDigest()
                cluster.sim.add_trace_hook(digest.hook)
                run_rm_day("slurm", cluster, n_jobs=40, seed=5, horizon_s=6 * 3600.0)
                counters = tel.snapshot()["counters"] if tel is not None else None
            return cluster.sim.events_processed, digest.hexdigest(), counters

        off_events, off_digest, _ = kernel_run(False)
        on_events, on_digest, counters = kernel_run(True)
        assert off_events == on_events > 0
        assert counters["sim.events"] == on_events
        assert off_digest == on_digest

    def test_recorded_run_identical_across_same_seed_runs(self):
        # Every metric is a simulated quantity, so the whole snapshot of
        # an ESLURM failure day that retrains its estimator repeats byte
        # for byte at one seed, with no key filtered out.
        from repro.api import SimulationConfig, TelemetryConfig, canonical_json, run_simulation

        config = SimulationConfig(
            rm="eslurm",
            n_nodes=256,
            seed=3,
            failures=True,
            n_jobs=200,
            estimator="auto",
            telemetry=TelemetryConfig(enabled=True),
        )
        first = run_simulation(config).telemetry
        second = run_simulation(config).telemetry
        assert first is not None and second is not None
        assert first["counters"]["estimate.trainings"] >= 1
        assert first["counters"]["rm.heartbeat_rounds"] >= 1
        assert canonical_json(first) == canonical_json(second)

    @pytest.mark.parametrize("rm", ["slurm", "eslurm"])
    def test_broadcast_metrics_per_rm(self, rm):
        # One count and one makespan sample per broadcast; only the
        # hierarchical RM hands satellites their share of a broadcast.
        from repro.api import SimulationConfig, TelemetryConfig, run_simulation

        snapshot = run_simulation(
            SimulationConfig(
                rm=rm, n_nodes=1024, seed=0, n_jobs=100, horizon_s=4 * 3600.0,
                telemetry=TelemetryConfig(enabled=True),
            )
        ).telemetry
        assert snapshot is not None
        counters, histograms = snapshot["counters"], snapshot["histograms"]
        for key in ("sim.events", "net.messages", "sched.passes", "rm.broadcasts"):
            assert counters.get(key, 0) > 0, key
        assert counters["rm.broadcasts"] == histograms["rm.broadcast.makespan_s"]["count"]
        satellite_tasks = histograms.get("rm.broadcast.satellite_tasks", {"count": 0})
        assert (satellite_tasks["count"] > 0) == (rm == "eslurm")
