"""The what-if cost artifact (``benchmarks/BENCH_whatif.json``).

The snapshot layer's pitch is economic: answering *"what if X happened
at time t?"* by delta-replay from a snapshot must be measurably cheaper
than rerunning the whole day.  This module records that claim as a
checked-in file on the paper-scale 1024-node tier: one full-day run
(the baseline every ``what-if`` would otherwise pay), then one
warm delta-replay per snapshot cut.

The payload splits into two sections, as the other bench artifacts do:

* ``anchors`` — simulation-deterministic facts (event counts, golden
  trace digest, canonical payload digest, per-cut replay fractions).
  Byte-identical on every host; any drift is a determinism regression.
* ``host`` — wall-clock measurements (full-run wall, per-cut what-if
  wall, speedups).  Informative, not comparable across machines.

``repro bench whatif`` records it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import typing as t
from pathlib import Path

from repro.errors import ConfigurationError

WHATIF_SCHEMA = "repro-bench-whatif/1"

#: repo-relative location of the checked-in what-if cost file
WHATIF_PATH = "benchmarks/BENCH_whatif.json"

#: snapshot cuts as fractions of the day
DEFAULT_CUTS = (0.25, 0.5, 0.75)

DAY = 86_400.0


def _payload_digest(payload: dict[str, t.Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def run_whatif_bench(
    seed: int = 0,
    rm: str = "eslurm",
    n_nodes: int = 1024,
    n_satellites: int = 2,
    n_jobs: int = 500,
    horizon_s: float = DAY,
    cuts: t.Sequence[float] = DEFAULT_CUTS,
    progress: t.Callable[[str], None] | None = None,
) -> dict[str, t.Any]:
    """Measure full-rerun vs warm delta-replay on one config.

    For each cut ``f`` the base run is advanced to ``f * horizon_s``
    (the cost shared by every what-if against that base), snapshotted
    warm, and one ``submit-job`` probe is delta-replayed to the horizon
    under the wall clock.
    """
    from repro.api import SimulationConfig
    from repro.snapshot import SimWorld, SubmitJob, capture, what_if

    for f in cuts:
        if not 0.0 <= f < 1.0:
            raise ConfigurationError(f"cut fractions must lie in [0, 1), got {f}")

    config = SimulationConfig(
        rm=rm,
        n_nodes=n_nodes,
        n_satellites=n_satellites,
        seed=seed,
        n_jobs=n_jobs,
        horizon_s=horizon_s,
    )
    if progress is not None:
        progress(f"whatif bench: full run ({rm}, {n_nodes} nodes, {n_jobs} jobs)")
    full_world = SimWorld(config)
    digest = full_world.attach_trace_digest()
    start = time.perf_counter()
    full_world.run_to_horizon()
    full_wall_s = time.perf_counter() - start
    events_full = full_world.sim.events_processed
    anchors: dict[str, t.Any] = {
        "events_full": events_full,
        "trace_digest": digest.hexdigest(),
        "payload_digest": _payload_digest(full_world.final_payload()),
        "cuts": {},
    }
    host: dict[str, t.Any] = {
        "cpus": os.cpu_count(),
        "full_run_wall_s": round(full_wall_s, 4),
        "cuts": {},
    }
    probe = SubmitJob()
    for f in cuts:
        key = f"{f:g}"
        world = SimWorld(config)
        world.run_until(world.sim.now + f * horizon_s)
        snapshot = capture(world)
        start = time.perf_counter()
        outcome = what_if(snapshot, probe)
        wall_s = time.perf_counter() - start
        anchors["cuts"][key] = {
            "events_at_snapshot": outcome.events_at_snapshot,
            "events_resumed": outcome.events_resumed,
            "events_total": outcome.events_total,
            "fraction_skipped": round(outcome.events_at_snapshot / outcome.events_total, 4),
            "probe_started": bool(outcome.probe.get("started")),
        }
        host["cuts"][key] = {
            "whatif_wall_s": round(wall_s, 4),
            "speedup_vs_full": round(full_wall_s / wall_s, 2) if wall_s else 0.0,
        }
        if progress is not None:
            progress(
                f"whatif bench: cut {key} — replayed {outcome.events_resumed} of "
                f"{outcome.events_total} events in {wall_s:.3f}s "
                f"(full run {full_wall_s:.3f}s)"
            )
    cheaper = all(
        entry["whatif_wall_s"] < host["full_run_wall_s"]
        for entry in host["cuts"].values()
    )
    return {
        "schema": WHATIF_SCHEMA,
        "seed": seed,
        "config": {
            "rm": rm,
            "n_nodes": n_nodes,
            "n_satellites": n_satellites,
            "n_jobs": n_jobs,
            "horizon_s": horizon_s,
            "perturbation": probe.to_wire(),
        },
        "anchors": anchors,
        "host": host,
        "whatif_cheaper_than_rerun": cheaper,
    }


def dump_whatif(payload: dict[str, t.Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_whatif(path: str | Path) -> dict[str, t.Any]:
    """Read + sanity-check a what-if cost file."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != WHATIF_SCHEMA:
        raise ConfigurationError(
            f"{path}: expected schema {WHATIF_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    anchors = payload.get("anchors")
    if not isinstance(anchors, dict) or not anchors.get("cuts"):
        raise ConfigurationError(f"{path}: what-if file has no snapshot cuts")
    return payload


def render_whatif(payload: dict[str, t.Any]) -> str:
    """The cut/events/wall/speedup table (also the README table)."""
    config = payload["config"]
    host = payload["host"]
    lines = [
        f"what-if delta-replay — {config['rm']}, {config['n_nodes']} nodes, "
        f"{config['n_jobs']} jobs, seed {payload['seed']}",
        f"full run: {payload['anchors']['events_full']} events, "
        f"{host['full_run_wall_s']:.3f}s wall",
        f"{'cut':>6}  {'skipped':>8}  {'replayed':>9}  {'wall_s':>8}  {'speedup':>8}",
    ]
    for key in sorted(payload["anchors"]["cuts"], key=float):
        anchor = payload["anchors"]["cuts"][key]
        wall = host["cuts"][key]
        lines.append(
            f"{key:>6}  {anchor['fraction_skipped']:>7.0%}  "
            f"{anchor['events_resumed']:>9}  {wall['whatif_wall_s']:>8.3f}  "
            f"{wall['speedup_vs_full']:>7.2f}x"
        )
    return "\n".join(lines)
