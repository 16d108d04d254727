"""The bench payload schema: layout, determinism rules, validation.

A bench payload is the deterministic slice of one scenario run:

.. code-block:: json

    {
      "schema": "repro-bench/1",
      "name": "eslurm-4096-failures",
      "seed": 0,
      "scenario": {"rm": "...", "n_nodes": 4096, "n_satellites": 2,
                   "failures": true, "n_jobs": 120, "horizon_s": 14400.0},
      "sim_time_s": 14400.0,
      "events": 123456,
      "events_per_sim_s": 8.57,
      "peak_heap_depth": 321,
      "counters": {"net.messages": 9876, "...": 0},
      "gauges": {"sched.queue_depth": {"last": 0, "min": 0, "max": 9, "n": 1}},
      "histograms": {"rm.broadcast.makespan_s": {"count": 1, "sum": 0.1,
                     "min": 0.1, "max": 0.1, "mean": 0.1, "buckets": {}}},
      "master": {"cpu_time_min": 1.0},
      "schedule": {"n_jobs": 120, "utilization": 0.5}
    }

Two same-seed runs must produce byte-identical payloads, so everything in
the payload derives from *simulated* quantities.  Host-clock metrics
(span wall times, wall-per-sim-second) are namespaced ``host.`` by the
telemetry layer and filtered out here.
"""

from __future__ import annotations

import typing as t

from repro.errors import ConfigurationError

SCHEMA = "repro-bench/1"

#: top-level keys every bench payload must carry, with their types
REQUIRED_FIELDS: dict[str, type | tuple[type, ...]] = {
    "schema": str,
    "name": str,
    "seed": int,
    "scenario": dict,
    "sim_time_s": (int, float),
    "events": int,
    "events_per_sim_s": (int, float),
    "peak_heap_depth": int,
    "counters": dict,
    "gauges": dict,
    "histograms": dict,
    "master": dict,
    "schedule": dict,
}

REQUIRED_SCENARIO_FIELDS = ("rm", "n_nodes", "n_satellites", "failures", "n_jobs", "horizon_s")


def is_deterministic_metric(name: str) -> bool:
    """Whether a metric may appear in a bench payload."""
    return not name.startswith("host.")


def validate_payload(payload: t.Mapping[str, t.Any]) -> None:
    """Raise :class:`ConfigurationError` on any schema deviation."""
    problems: list[str] = []
    for key, types in REQUIRED_FIELDS.items():
        if key not in payload:
            problems.append(f"missing field {key!r}")
        elif not isinstance(payload[key], types):
            problems.append(f"field {key!r} has type {type(payload[key]).__name__}")
    if not problems and payload["schema"] != SCHEMA:
        problems.append(f"schema is {payload['schema']!r}, expected {SCHEMA!r}")
    if not problems:
        for key in REQUIRED_SCENARIO_FIELDS:
            if key not in payload["scenario"]:
                problems.append(f"missing scenario field {key!r}")
    if not problems:
        for section in ("counters", "gauges", "histograms"):
            for metric in payload[section]:
                if not is_deterministic_metric(metric):
                    problems.append(f"non-deterministic metric {metric!r} in {section}")
    if problems:
        raise ConfigurationError(
            "invalid bench payload: " + "; ".join(problems)
        )
