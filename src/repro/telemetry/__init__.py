"""Counters, gauges and histograms for every hot path, behind one switch.

The behaviour record of a run: every metric is derived from simulated
quantities (events, messages, queue depths, simulated seconds), so two
same-seed runs produce identical snapshots by construction.  Host cost
is not recorded here; the per-layer timer in ``benchmarks/e2e`` times
it.  With no session active — the default — every instrumented call
site in the simulator, network fabric, RM layers, scheduler and
estimator reduces to a single ``is None`` check.
``SimulationConfig(telemetry=TelemetryConfig(enabled=True))`` scopes
a session to one run and returns its snapshot on the result; the
differential oracle reads counters from it.

Usage::

    from repro import telemetry

    with telemetry.session() as tel:
        run_simulation(...)
        print(tel.snapshot()["counters"]["sim.events"])
"""

from repro.telemetry.facade import Telemetry, active, count, gauge, observe, session
from repro.telemetry.metrics import (
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "active",
    "count",
    "gauge",
    "observe",
    "session",
]
