"""Telemetry units: metrics, spans, sessions, and the null-sink posture."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    NOOP_SPAN,
    Counter,
    Gauge,
    Histogram,
    InMemorySink,
    MetricsRegistry,
    Telemetry,
)
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

    def test_merge(self):
        a, b = Counter("x"), Counter("x")
        a.inc(2)
        b.inc(3)
        a.merge(b)
        assert a.snapshot() == 5.0


class TestGauge:
    def test_tracks_extremes(self):
        g = Gauge("depth")
        for v in (5.0, 1.0, 9.0):
            g.set(v)
        assert g.snapshot() == {"last": 9.0, "min": 1.0, "max": 9.0, "n": 3}

    def test_empty_snapshot_is_zeroes(self):
        assert Gauge("d").snapshot() == {"last": 0.0, "min": 0.0, "max": 0.0, "n": 0}

    def test_merge_last_write_wins(self):
        a, b = Gauge("d"), Gauge("d")
        a.set(4.0)
        b.set(7.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["last"] == 7.0 and snap["max"] == 7.0 and snap["n"] == 2


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == {"1.0": 1, "10.0": 1, "inf": 1}
        assert snap["min"] == 0.5 and snap["max"] == 50.0

    def test_merge_elementwise(self):
        a = Histogram("lat", bounds=(1.0, 10.0))
        b = Histogram("lat", bounds=(1.0, 10.0))
        a.observe(0.5)
        b.observe(0.7)
        b.observe(20.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"]["1.0"] == 2 and snap["buckets"]["inf"] == 1

    def test_merge_mismatched_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("a", bounds=(1.0,)).merge(Histogram("a", bounds=(2.0,)))

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

    def test_merge_folds_all_kinds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.gauge("g").set(3.0)
        b.histogram("h").observe(4.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["c"] == 3.0
        assert snap["gauges"]["g"]["last"] == 3.0
        assert snap["histograms"]["h"]["count"] == 1


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        sink = InMemorySink()
        tel = Telemetry(sink)
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        (inner,) = sink.by_name("inner")
        (outer,) = sink.by_name("outer")
        assert inner.parent == "outer" and inner.depth == 1
        assert outer.parent is None and outer.depth == 0
        assert tel._span_stack == []

    def test_span_feeds_host_histogram(self):
        tel = Telemetry()
        with tel.span("work"):
            pass
        snap = tel.snapshot()
        assert snap["histograms"]["host.span.work_s"]["count"] == 1

    def test_sequential_spans_are_siblings(self):
        sink = InMemorySink()
        tel = Telemetry(sink)
        with tel.span("a"):
            pass
        with tel.span("b"):
            pass
        assert sink.by_name("b")[0].parent is None


class TestNullSinkPosture:
    def test_off_by_default(self):
        assert telemetry.active() is None

    def test_wrappers_are_noops_when_off(self):
        # must not raise, must not install anything
        telemetry.count("x")
        telemetry.gauge("x", 1.0)
        telemetry.observe("x", 1.0)
        assert telemetry.active() is None

    def test_disabled_span_is_the_shared_singleton(self):
        s = telemetry.span("anything")
        assert s is NOOP_SPAN
        with s:
            pass  # no state, no error

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

    def test_install_uninstall(self):
        tel = telemetry.install()
        try:
            assert telemetry.active() is tel
        finally:
            telemetry.uninstall()
        assert telemetry.active() is None


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
