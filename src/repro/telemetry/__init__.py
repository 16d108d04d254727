"""Tracing + metrics for every hot path, behind one zero-cost switch.

The measurement spine of the repository: spans (host-clock timers),
counters/gauges/histograms (simulation-deterministic aggregates), and
pluggable sinks.  With no session installed — the default — every
instrumented call site in the simulator, network fabric, RM layers,
scheduler, and estimator reduces to a single ``is None`` check, so
tier-1 performance is untouched.  ``repro bench`` installs a session
per scenario and freezes the deterministic slice of the snapshot into
a bench payload, from which the checked-in anchor files are built.

Usage::

    from repro import telemetry

    with telemetry.session() as tel:
        run_simulation(...)
        print(tel.snapshot()["counters"]["sim.events"])
"""

from repro.telemetry.facade import (
    Telemetry,
    active,
    count,
    gauge,
    install,
    observe,
    session,
    span,
    uninstall,
)
from repro.telemetry.metrics import (
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.sinks import InMemorySink, NullSink, TelemetrySink
from repro.telemetry.spans import NOOP_SPAN, Span, SpanRecord

__all__ = [
    "DEFAULT_BOUNDS",
    "NOOP_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "MetricsRegistry",
    "NullSink",
    "Span",
    "SpanRecord",
    "Telemetry",
    "TelemetrySink",
    "active",
    "count",
    "gauge",
    "install",
    "observe",
    "session",
    "span",
    "uninstall",
]
