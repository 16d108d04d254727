"""The sweep-determinism artifact (``benchmarks/BENCH_sweep.json``).

A bench payload freezes one scenario's simulation facts.  This module
owns one file recording the *whole* scenario matrix at several
``--jobs`` levels: a digest per level proving the payloads were
byte-identical to the serial run, and their event total.  It holds
no wall times; host speed is measured by ``benchmarks/e2e`` alone.
``repro bench sweep`` records it.
"""

from __future__ import annotations

import hashlib
import json
import typing as t

from repro.bench.runner import MatrixSweep, run_matrix_sweep
from repro.bench.scenarios import SCENARIOS
from repro.errors import ConfigurationError
from repro.parallel.pool import resolve_jobs

SWEEP_SCHEMA = "repro-bench-sweep/1"

#: repo-relative location of the checked-in sweep file
SWEEP_PATH = "benchmarks/BENCH_sweep.json"

#: jobs levels the sweep file records (serial baseline first)
DEFAULT_JOBS_LEVELS = (1, 2, 4)


def sweep_digest(sweep: MatrixSweep) -> str:
    """SHA-256 over the concatenated canonical payload bytes, in matrix
    order — equal digests mean byte-identical payloads."""
    digest = hashlib.sha256()
    for result in sweep.results:
        digest.update(result.to_json().encode())
    return digest.hexdigest()


def run_sweep_baseline(
    jobs_levels: t.Sequence[int] = DEFAULT_JOBS_LEVELS,
    names: t.Sequence[str] | None = None,
    seed: int = 0,
    progress: t.Callable[[str], None] | None = None,
) -> dict[str, t.Any]:
    """Run the matrix at each jobs level; return the sweep payload.

    Each level is resolved first (``0`` = cpu autodetect), so the serial
    level (``jobs=1``) is always run first: each other level's merged
    output is digest-checked against it, and a mismatch is a determinism
    bug and raises.
    """
    levels = sorted({1, *(resolve_jobs(int(j)) for j in jobs_levels)})
    chosen = list(SCENARIOS) if names is None else list(names)
    runs: dict[str, t.Any] = {}
    serial_digest: str | None = None
    for jobs in levels:
        if progress is not None:
            progress(f"-- sweep at jobs={jobs} ({len(chosen)} scenarios)")
        sweep = run_matrix_sweep(names=chosen, seed=seed, jobs=jobs, progress=progress)
        if not sweep.ok:
            failed = [f.task_id for f in sweep.failures]
            raise ConfigurationError(f"sweep at jobs={jobs} had failed cells: {failed}")
        digest = sweep_digest(sweep)
        if jobs == 1:
            serial_digest = digest
        elif digest != serial_digest:
            raise ConfigurationError(
                f"sweep at jobs={jobs} is not byte-identical to the serial run "
                f"({digest[:12]} != {(serial_digest or '')[:12]})"
            )
        runs[str(jobs)] = {
            "digest": digest,
            "events_total": sum(r.payload["events"] for r in sweep.results),
        }
    return {
        "schema": SWEEP_SCHEMA,
        "seed": seed,
        "scenarios": chosen,
        "runs": runs,
    }


def dump_sweep(payload: dict[str, t.Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_sweep(payload: dict[str, t.Any]) -> str:
    """The per-jobs-level determinism table."""
    lines = [
        f"sweep — {len(payload['scenarios'])} scenarios, seed {payload['seed']}",
        f"{'jobs':>6}  {'events':>9}  byte-identical",
    ]
    serial = payload["runs"]["1"]
    for jobs in sorted(payload["runs"], key=int):
        run = payload["runs"][jobs]
        identical = "yes" if run["digest"] == serial["digest"] else "NO"
        lines.append(f"{jobs:>6}  {run['events_total']:>9}  {identical}")
    return "\n".join(lines)
