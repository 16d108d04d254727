"""The sweep-determinism artifact (``benchmarks/BENCH_sweep.json``).

The matrix bench files freeze per-scenario simulation payloads.  This
module owns one file recording the *whole* scenario matrix at several
``--jobs`` levels: a digest per level proving the merged payloads were
byte-identical to the serial run, and the merged event total.  It holds
no wall times; host speed is measured by ``benchmarks/e2e`` alone.
``repro bench sweep`` records it.
"""

from __future__ import annotations

import hashlib
import json
import typing as t
from pathlib import Path

from repro.bench.runner import MatrixSweep, run_matrix_sweep
from repro.bench.scenarios import SCENARIOS
from repro.errors import ConfigurationError

SWEEP_SCHEMA = "repro-bench-sweep/1"

#: repo-relative location of the checked-in sweep file
SWEEP_PATH = "benchmarks/BENCH_sweep.json"

#: jobs levels the sweep file records (serial baseline first)
DEFAULT_JOBS_LEVELS = (1, 2, 4)


def sweep_digest(sweep: MatrixSweep) -> str:
    """SHA-256 over the concatenated canonical payload bytes, in matrix
    order — equal digests mean byte-identical ``BENCH_*.json`` files."""
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

    The serial level (``jobs=1``) is always run first: each other
    level's merged output is digest-checked against it, and a mismatch
    is a determinism bug and raises.
    """
    levels = list(dict.fromkeys(int(j) for j in jobs_levels))
    if 1 not in levels:
        levels.insert(0, 1)
    levels.sort()
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
        counters = sweep.merged_telemetry()["counters"]
        if jobs == 1:
            serial_digest = digest
        elif digest != serial_digest:
            raise ConfigurationError(
                f"sweep at jobs={jobs} is not byte-identical to the serial run "
                f"({digest[:12]} != {(serial_digest or '')[:12]})"
            )
        runs[str(jobs)] = {
            "digest": digest,
            "events_total": int(counters.get("sim.events", 0)),
        }
    return {
        "schema": SWEEP_SCHEMA,
        "seed": seed,
        "scenarios": chosen,
        "runs": runs,
    }


def dump_sweep(payload: dict[str, t.Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_sweep(path: str | Path) -> dict[str, t.Any]:
    """Read + sanity-check a sweep file."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != SWEEP_SCHEMA:
        raise ConfigurationError(
            f"{path}: expected schema {SWEEP_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    runs = payload.get("runs")
    if not isinstance(runs, dict) or "1" not in runs:
        raise ConfigurationError(f"{path}: sweep file has no serial (jobs=1) run")
    return payload


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
