"""The what-if cost artifact (``benchmarks/BENCH_whatif.json``).

The snapshot layer's pitch is economic: answering *"what if X happened
at time t?"* by delta-replay from a snapshot must do less work than
rerunning the whole day.  This module records that claim as a
checked-in file on the paper-scale 1024-node tier: one full-day run
(the baseline every ``what-if`` would otherwise pay), then one warm
delta-replay per snapshot cut.

Every field is simulation-deterministic (event counts, golden trace
digest, canonical payload digest, per-cut replay fractions), so the
file is byte-identical on every host and any drift is a determinism
regression.  The cost is counted in events, not wall time: the warm
what-if replays only the ``events_resumed`` after its cut, and
``whatif_cheaper_than_rerun`` holds when every cut replays fewer events
than the full run.  ``repro bench whatif`` records it.
"""

from __future__ import annotations

import hashlib
import json
import typing as t

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
    warm, and one ``submit-job`` probe is delta-replayed to the horizon.
    """
    from repro.api import SimulationConfig
    from repro.snapshot import SimWorld, SubmitJob, capture, what_if

    if not cuts:
        raise ConfigurationError("at least one snapshot cut is required")
    keys = [f"{f:g}" for f in cuts]
    if len(set(keys)) != len(keys):
        raise ConfigurationError(f"snapshot cuts must be distinct, got {','.join(keys)}")
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
    full_world.run_to_horizon()
    events_full = full_world.sim.events_processed
    anchors: dict[str, t.Any] = {
        "events_full": events_full,
        "trace_digest": digest.hexdigest(),
        "payload_digest": _payload_digest(full_world.final_payload()),
        "cuts": {},
    }
    probe = SubmitJob()
    for f, key in zip(cuts, keys):
        world = SimWorld(config)
        world.run_until(world.sim.now + f * horizon_s)
        outcome = what_if(capture(world), probe)
        anchors["cuts"][key] = {
            "events_at_snapshot": outcome.events_at_snapshot,
            "events_resumed": outcome.events_resumed,
            "events_total": outcome.events_total,
            "fraction_skipped": round(outcome.events_at_snapshot / outcome.events_total, 4),
            "probe_started": bool(outcome.probe.get("started")),
        }
        if progress is not None:
            progress(
                f"whatif bench: cut {key} — replayed {outcome.events_resumed} of "
                f"{outcome.events_total} events (full run {events_full} events)"
            )
    cheaper = all(
        entry["events_resumed"] < events_full for entry in anchors["cuts"].values()
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
        "whatif_cheaper_than_rerun": cheaper,
    }


def dump_whatif(payload: dict[str, t.Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_whatif(payload: dict[str, t.Any]) -> str:
    """The cut/skipped/replayed table (also the README table)."""
    config = payload["config"]
    lines = [
        f"what-if delta-replay — {config['rm']}, {config['n_nodes']} nodes, "
        f"{config['n_jobs']} jobs, seed {payload['seed']}",
        f"full run: {payload['anchors']['events_full']} events",
        f"{'cut':>6}  {'skipped':>8}  {'replayed':>9}",
    ]
    for key in sorted(payload["anchors"]["cuts"], key=float):
        anchor = payload["anchors"]["cuts"][key]
        lines.append(
            f"{key:>6}  {anchor['fraction_skipped']:>7.0%}  "
            f"{anchor['events_resumed']:>9}"
        )
    return "\n".join(lines)
