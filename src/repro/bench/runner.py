"""Execute bench scenarios and freeze their deterministic results.

``run_bench`` runs one scenario under a telemetry session and splits
the outcome in two: a *payload* (simulation-deterministic, what goes
into ``BENCH_<name>.json`` byte-for-byte) and *host* facts (wall time,
span timings) that are printed but never written, because they would
break the same-seed byte-identity the perf trajectory depends on.
"""

from __future__ import annotations

import gc
import json
import time
import typing as t
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.api import run_simulation
from repro.bench.scenarios import SCENARIOS, BenchScenario, get_scenario
from repro.bench.schema import SCHEMA, is_deterministic_metric, validate_payload


@dataclass(frozen=True)
class BenchResult:
    """One executed scenario: the frozen payload plus host-side facts."""

    scenario: BenchScenario
    seed: int
    payload: dict[str, t.Any]
    host_wall_s: float
    host_metrics: dict[str, t.Any]

    @property
    def file_name(self) -> str:
        return f"{self.scenario.file_stem}.json"

    def to_json(self) -> str:
        """Canonical byte-stable rendering of the payload."""
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"


def _split_metrics(
    snapshot: t.Mapping[str, dict[str, t.Any]],
) -> tuple[dict[str, t.Any], dict[str, t.Any]]:
    """(deterministic, host) halves of a telemetry snapshot section."""
    deterministic = {k: v for k, v in snapshot.items() if is_deterministic_metric(k)}
    host = {k: v for k, v in snapshot.items() if not is_deterministic_metric(k)}
    return deterministic, host


def run_bench(scenario: str | BenchScenario, seed: int = 0) -> BenchResult:
    """Run one scenario; returns its validated result."""
    spec = scenario if isinstance(scenario, BenchScenario) else get_scenario(scenario)
    # Flush earlier runs' garbage now: a dead simulation finalised
    # mid-run must not emit anything into this run's telemetry session.
    gc.collect()
    start = time.perf_counter()
    result = run_simulation(spec.simulation_config(seed))
    host_wall_s = time.perf_counter() - start
    snapshot = result.telemetry
    assert snapshot is not None  # telemetry is always on for bench runs
    counters, host_counters = _split_metrics(snapshot["counters"])
    gauges, host_gauges = _split_metrics(snapshot["gauges"])
    histograms, host_histograms = _split_metrics(snapshot["histograms"])
    events = int(counters.get("sim.events", 0))
    sim_time_s = float(counters.pop("sim.time_s", spec.horizon_s))
    peak_heap = int(gauges.get("sim.heap.peak", {}).get("max", 0))
    schedule = asdict(result.report.schedule) if result.report.schedule else {}
    scenario_fields: dict[str, t.Any] = {
        "rm": spec.rm,
        "n_nodes": spec.n_nodes,
        "n_satellites": spec.n_satellites,
        "failures": spec.failures,
        "n_jobs": spec.n_jobs,
        "horizon_s": spec.horizon_s,
    }
    # Elastic/placement knobs appear only when set, so every bench file
    # recorded before they existed stays byte-identical.
    if spec.malleable_fraction > 0.0:
        scenario_fields["malleable_fraction"] = spec.malleable_fraction
    if spec.placement != "first-fit":
        scenario_fields["placement"] = spec.placement
    payload: dict[str, t.Any] = {
        "schema": SCHEMA,
        "name": spec.name,
        "seed": seed,
        "scenario": scenario_fields,
        "sim_time_s": sim_time_s,
        "events": events,
        "events_per_sim_s": events / sim_time_s if sim_time_s else 0.0,
        "peak_heap_depth": peak_heap,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "master": result.report.master,
        "schedule": schedule,
    }
    validate_payload(payload)
    return BenchResult(
        scenario=spec,
        seed=seed,
        payload=payload,
        host_wall_s=host_wall_s,
        host_metrics={
            "counters": host_counters,
            "gauges": host_gauges,
            "histograms": host_histograms,
        },
    )


def write_bench_file(result: BenchResult, out_dir: str | Path = ".") -> Path:
    """Write ``BENCH_<name>.json``; returns the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / result.file_name
    path.write_text(result.to_json())
    return path


@dataclass
class MatrixSweep:
    """Outcome of one (possibly parallel) run over the scenario matrix."""

    results: list[BenchResult]
    #: failed cells (crash-contained; the rest of the sweep completed)
    failures: list["TaskResult"]
    jobs: int
    wall_s: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def merged_telemetry(self) -> dict[str, dict[str, t.Any]]:
        """Cross-run telemetry aggregation, folded in matrix order.

        Counters sum and histograms fold element-wise (order-free);
        gauges fold last-write by matrix position — so the merge is a
        pure function of the scenario list, identical at any ``-j``.
        """
        from repro.parallel.merge import merge_snapshots

        return merge_snapshots([r.payload for r in self.results])


def _result_from_cell(value: dict[str, t.Any]) -> BenchResult:
    """Rebuild a :class:`BenchResult` from a sweep cell's plain dict."""
    return BenchResult(
        scenario=get_scenario(value["scenario"]),
        seed=value["seed"],
        payload=value["payload"],
        host_wall_s=value["host_wall_s"],
        host_metrics=value["host_metrics"],
    )


def run_matrix_sweep(
    names: t.Sequence[str] | None = None,
    seed: int = 0,
    out_dir: str | Path | None = None,
    progress: t.Callable[[str], None] | None = None,
    jobs: int = 1,
) -> MatrixSweep:
    """Run scenarios as a sweep; failed cells are contained, not fatal.

    ``jobs=1`` executes inline — the serial path; ``jobs>1`` fans the
    cells out over spawn-based workers.  Either way the returned
    results sit in matrix order and each ``BENCH_*.json`` is
    byte-identical to what a serial run writes, because every cell is
    a fully seeded, self-contained simulation.
    """
    from repro.parallel.pool import Task, TaskResult, run_tasks

    chosen = list(SCENARIOS) if names is None else list(names)
    for name in chosen:
        get_scenario(name)  # fail fast on unknown names, pre-spawn
    tasks = [
        Task(id=name, kind="bench", spec={"scenario": name, "seed": seed})
        for name in chosen
    ]

    def on_cell(task_result: TaskResult) -> None:
        if task_result.ok:
            result = _result_from_cell(task_result.value)
            where = ""
            if out_dir is not None:
                where = f" -> {write_bench_file(result, out_dir)}"
            if progress is not None:
                progress(
                    f"{result.scenario.name:<24} {result.payload['events']:>9} events  "
                    f"host {result.host_wall_s:7.2f}s{where}"
                )
        elif progress is not None:
            progress(f"{task_result.task_id:<24} FAILED after "
                     f"{task_result.attempts} attempt(s)")

    start = time.perf_counter()
    outcomes = run_tasks(tasks, jobs=jobs, progress=on_cell)
    wall_s = time.perf_counter() - start
    return MatrixSweep(
        results=[_result_from_cell(o.value) for o in outcomes if o.ok],
        failures=[o for o in outcomes if not o.ok],
        jobs=jobs,
        wall_s=wall_s,
    )


def run_matrix(
    names: t.Sequence[str] | None = None,
    seed: int = 0,
    out_dir: str | Path | None = None,
    progress: t.Callable[[str], None] | None = None,
    jobs: int = 1,
) -> list[BenchResult]:
    """Run scenarios (all by default), optionally writing their files.

    Args:
        names: scenario names; ``None`` runs the whole matrix.
        seed: master seed for every run.
        out_dir: where to write ``BENCH_*.json`` (``None`` skips writing).
        progress: per-scenario status callback (e.g. ``print``).
        jobs: sweep worker processes (1 = inline serial path, 0 = cpu
            autodetect); see :func:`run_matrix_sweep`.

    Raises:
        SweepError: when any cell failed even after its retry (use
            :func:`run_matrix_sweep` to get partial results instead).
    """
    from repro.parallel.pool import SweepError

    sweep = run_matrix_sweep(
        names=names, seed=seed, out_dir=out_dir, progress=progress, jobs=jobs
    )
    if not sweep.ok:
        details = "; ".join(
            f"{f.task_id}: {(f.error or 'unknown').splitlines()[-1]}"
            for f in sweep.failures
        )
        raise SweepError(f"{len(sweep.failures)} bench cell(s) failed — {details}")
    return sweep.results


def load_bench_file(path: str | Path) -> dict[str, t.Any]:
    """Read + schema-validate one ``BENCH_*.json``."""
    payload = json.loads(Path(path).read_text())
    validate_payload(payload)
    return payload
