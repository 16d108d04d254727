"""Execute bench scenarios and freeze their deterministic results.

``run_bench`` runs one scenario under a telemetry session and keeps
its *payload*: the session's snapshot plus the run's report, all
simulated quantities, so byte-stable at a seed.  The run's host wall
time is kept beside the payload, never in it, for progress lines.
"""

from __future__ import annotations

import gc
import json
import time
import typing as t
from dataclasses import asdict, dataclass

from repro.api import run_simulation
from repro.bench.scenarios import SCENARIOS, BenchScenario, get_scenario
from repro.bench.schema import SCHEMA, validate_payload


@dataclass(frozen=True)
class BenchResult:
    """One executed scenario: the frozen payload plus its host wall time."""

    scenario: BenchScenario
    seed: int
    payload: dict[str, t.Any]
    host_wall_s: float

    def to_json(self) -> str:
        """Canonical byte-stable rendering of the payload."""
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"


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
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    histograms = snapshot["histograms"]
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
    # Elastic/placement knobs appear only when set, so every payload
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
    return BenchResult(scenario=spec, seed=seed, payload=payload, host_wall_s=host_wall_s)


@dataclass
class MatrixSweep:
    """Outcome of one (possibly parallel) run over the scenario matrix."""

    results: list[BenchResult]
    #: failed cells (crash-contained; the rest of the sweep completed)
    failures: list["TaskResult"]

    @property
    def ok(self) -> bool:
        return not self.failures


def _result_from_cell(value: dict[str, t.Any]) -> BenchResult:
    """Rebuild a :class:`BenchResult` from a sweep cell's plain dict."""
    return BenchResult(
        scenario=get_scenario(value["scenario"]),
        seed=value["seed"],
        payload=value["payload"],
        host_wall_s=value["host_wall_s"],
    )


def run_matrix_sweep(
    names: t.Sequence[str] | None = None,
    seed: int = 0,
    progress: t.Callable[[str], None] | None = None,
    jobs: int = 1,
) -> MatrixSweep:
    """Run scenarios as a sweep; failed cells are contained, not fatal.

    ``jobs=1`` executes inline — the serial path; ``jobs>1`` fans the
    cells out over spawn-based workers.  Either way the returned
    results sit in matrix order and each payload is byte-identical to
    what a serial run produces, because every cell is a fully seeded,
    self-contained simulation.
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
        if progress is None:
            return
        if task_result.ok:
            result = _result_from_cell(task_result.value)
            progress(
                f"{result.scenario.name:<24} {result.payload['events']:>9} events  "
                f"host {result.host_wall_s:7.2f}s"
            )
        else:
            progress(f"{task_result.task_id:<24} FAILED after "
                     f"{task_result.attempts} attempt(s)")

    outcomes = run_tasks(tasks, jobs=jobs, progress=on_cell)
    return MatrixSweep(
        results=[_result_from_cell(o.value) for o in outcomes if o.ok],
        failures=[o for o in outcomes if not o.ok],
    )
