"""The chaos campaign runner and the schedule shrinker.

``run_scenario`` executes one named scenario: it builds a seeded
simulator, cluster, and ESLURM instance, attaches every registered
invariant (event hooks + the post-event probe), injects the scenario's
deterministic fault schedule, drives a synthetic job stream, and
returns a :class:`~repro.chaos.report.ChaosReport`.

``shrink_schedule`` is the reproduction aid: given a failing run it
ddmin-reduces the fault schedule to a (1-)minimal sublist that still
violates an invariant — the thing you paste into a bug report next to
the seed.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from repro.chaos.report import ChaosReport
from repro.chaos.scenarios import DAY, ChaosScenario, ScheduledFault, get_scenario
from repro.cluster.failures import FailureModel
from repro.cluster.spec import ClusterSpec
from repro.oracle.invariants import (
    ChaosContext,
    Invariant,
    InvariantRegistry,
    default_invariants,
)
from repro.rm.eslurm import EslurmRM
from repro.sched.job import JobState
from repro.simkit.core import Simulator
from repro.workload.synthetic import WorkloadConfig, generate_trace

#: a list-of-invariants factory; fresh instances per run (they carry state)
InvariantFactory = t.Callable[[], t.List[Invariant]]


def _resolve(scenario: str | ChaosScenario) -> ChaosScenario:
    return scenario if isinstance(scenario, ChaosScenario) else get_scenario(scenario)


def _job_stream(scenario: ChaosScenario, seed: int):
    """Seed-deterministic synthetic jobs paced to fill ~60 % of the horizon."""
    config = WorkloadConfig(
        n_users=12,
        n_apps=10,
        apps_per_user=2,
        jobs_per_day=scenario.n_jobs * DAY / (0.6 * scenario.horizon_s),
        max_nodes=max(1, scenario.n_nodes // 4),
        long_job_fraction=0.1,
        burst_mean=2.0,
        malleable_fraction=scenario.malleable_fraction,
        name=f"chaos-{scenario.name}",
    )
    return generate_trace(config, scenario.n_jobs, seed=seed)


def run_scenario(
    scenario: str | ChaosScenario,
    seed: int = 0,
    schedule: t.Sequence[ScheduledFault] | None = None,
    invariant_factory: InvariantFactory | None = None,
) -> ChaosReport:
    """Execute one campaign run; never raises on violations.

    Args:
        scenario: catalogue name or an explicit :class:`ChaosScenario`.
        seed: master seed for the simulator, the fault schedule, and
            the job stream — same seed, same run, byte for byte.
        schedule: explicit fault schedule (the shrinker passes subsets);
            defaults to the scenario's seeded schedule.
        invariant_factory: produces the invariants to enforce; defaults
            to :func:`~repro.oracle.invariants.default_invariants`.
    """
    spec = _resolve(scenario)
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(
        n_nodes=spec.n_nodes,
        n_satellites=spec.n_satellites,
        failure_model=FailureModel.disabled(),
        name=f"chaos-{spec.name}",
    ).build(sim)
    rm_kwargs: dict[str, t.Any] = {}
    if spec.malleable_fraction > 0.0:
        from repro.sched.backfill import BackfillScheduler

        rm_kwargs["scheduler"] = BackfillScheduler(malleable=True)
    if spec.placement != "first-fit":
        from repro.sched.placement import build_placement

        rm_kwargs["placement"] = build_placement(
            spec.placement, cluster.topology, alert_source=cluster.monitor
        )
    rm = EslurmRM(sim, cluster, **rm_kwargs)

    registry = InvariantRegistry(
        invariant_factory() if invariant_factory is not None else default_invariants()
    )
    ctx = ChaosContext(sim=sim, cluster=cluster, rm=rm)
    registry.attach(ctx)
    sim.add_probe(lambda: registry.probe(ctx))

    if schedule is None:
        schedule = spec.build_schedule(np.random.default_rng(seed))
    for fault in schedule:
        cluster.failures.schedule_fault(fault.kind, fault.at, fault.node_ids, fault.duration)

    jobs = _job_stream(spec, seed)
    rm.run_trace(jobs, until=spec.horizon_s)

    return ChaosReport(
        scenario=spec.name,
        seed=seed,
        horizon_s=spec.horizon_s,
        n_nodes=spec.n_nodes,
        n_satellites=spec.n_satellites,
        events_processed=sim.events_processed,
        checks_run=registry.checks_run,
        faults_injected=cluster.failures.failures_injected(),
        alerts_raised=cluster.monitor.alert_count(),
        jobs_submitted=len(jobs),
        jobs_completed=sum(1 for j in rm.jobs if j.state is JobState.COMPLETED),
        jobs_failed=sum(1 for j in rm.jobs if j.state is JobState.FAILED),
        master_takeovers=rm.sat_pool.master_takeovers,
        jobs_grown=rm.resize_grows,
        jobs_shrunk=rm.resize_shrinks,
        invariant_counts=registry.counts(),
        violations=tuple(registry.violations),
        schedule=tuple(schedule),
    )


# ---------------------------------------------------------------------------
# multi-scenario / multi-seed campaigns (the sweep surface)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignCell:
    """One (scenario, seed) cell of a campaign grid, post-run."""

    scenario: str
    seed: int
    ok: bool
    total_violations: int
    #: ``asdict`` form of the :class:`ChaosReport` (JSON-able)
    report: dict[str, t.Any]
    #: the report's canonical ``to_text()`` rendering
    text: str


@dataclass
class CampaignOutcome:
    """A whole campaign grid: cells in grid order plus contained failures."""

    cells: list[CampaignCell]
    #: cells that crashed or errored even after retry (grid completed anyway)
    failures: list["TaskResult"]
    jobs: int

    @property
    def ok(self) -> bool:
        return not self.failures and all(cell.ok for cell in self.cells)

    @property
    def total_violations(self) -> int:
        return sum(cell.total_violations for cell in self.cells)

    def merged_invariant_counts(self) -> dict[str, int]:
        """Invariant hit-counts summed across every cell (order-free)."""
        from repro.parallel.merge import merge_counter_maps

        return {
            name: int(count)
            for name, count in merge_counter_maps(
                dict(cell.report["invariant_counts"]) for cell in self.cells
            ).items()
        }

    def to_text(self) -> str:
        """Canonical rendering: per-cell reports in grid order + summary."""
        blocks = [cell.text for cell in self.cells]
        blocks.append(self.summary_text())
        return "\n\n".join(blocks)

    def summary_text(self) -> str:
        lines = [
            f"campaign: {len(self.cells)} run(s), "
            f"{self.total_violations} violation(s), "
            f"{len(self.failures)} crashed cell(s)",
        ]
        for name, count in sorted(self.merged_invariant_counts().items()):
            lines.append(f"  {name:<24} {count}")
        for failure in self.failures:
            detail = (failure.error or "unknown").splitlines()[-1]
            lines.append(f"  CRASHED {failure.task_id}: {detail}")
        return "\n".join(lines)

    def to_payload(self) -> dict[str, t.Any]:
        return {
            "ok": self.ok,
            "n_cells": len(self.cells),
            "total_violations": self.total_violations,
            "invariant_counts": self.merged_invariant_counts(),
            "failures": [
                {"cell": f.task_id, "error": (f.error or "").splitlines()[-1:]}
                for f in self.failures
            ],
            "reports": [cell.report for cell in self.cells],
        }


def campaign_cell_id(scenario: str, seed: int) -> str:
    return f"{scenario}@s{seed}"


def run_campaign(
    scenarios: t.Sequence[str],
    seeds: t.Sequence[int] = (0,),
    jobs: int = 1,
    progress: t.Callable[[str], None] | None = None,
) -> CampaignOutcome:
    """Run the scenario × seed grid; every cell is crash-contained.

    ``jobs=1`` executes the grid inline in scenario-major, seed-minor
    order — exactly a loop over :func:`run_scenario`; ``jobs>1`` fans
    the same cells out over spawn-based workers and merges results back
    into grid order, so the rendered output and JSON payload are
    byte-identical either way.  (Custom invariant factories are a
    single-run affair — they cannot cross a process boundary — so grid
    cells always run the default invariant set.)
    """
    from repro.parallel.pool import Task, TaskResult, run_tasks

    for name in scenarios:
        get_scenario(name)  # fail fast on unknown names, pre-spawn
    tasks = [
        Task(
            id=campaign_cell_id(name, seed),
            kind="chaos",
            spec={"scenario": name, "seed": int(seed)},
        )
        for name in scenarios
        for seed in seeds
    ]

    def on_cell(result: TaskResult) -> None:
        if progress is None:
            return
        if result.ok:
            v = result.value["total_violations"]
            verdict = "ok" if result.value["ok"] else f"{v} violation(s)"
            progress(f"{result.task_id:<32} {verdict}  ({result.wall_s:.2f}s)")
        else:
            progress(f"{result.task_id:<32} CRASHED after {result.attempts} attempt(s)")

    outcomes = run_tasks(tasks, jobs=jobs, progress=on_cell)
    cells = [
        CampaignCell(
            scenario=o.value["scenario"],
            seed=o.value["seed"],
            ok=o.value["ok"],
            total_violations=o.value["total_violations"],
            report=o.value["report"],
            text=o.value["text"],
        )
        for o in outcomes
        if o.ok
    ]
    return CampaignOutcome(
        cells=cells,
        failures=[o for o in outcomes if not o.ok],
        jobs=jobs,
    )


class _ShrinkBudgetExhausted(Exception):
    """Internal: the shrinker hit its re-run budget."""


def ddmin(
    items: t.Sequence[ScheduledFault],
    fails: t.Callable[[t.Sequence[ScheduledFault]], bool],
) -> list[ScheduledFault]:
    """Classic delta-debugging minimisation over a fault schedule.

    Returns a sublist on which ``fails`` still holds and from which no
    single tried chunk can be removed — empty if the full input does
    not fail at all.
    """
    current = list(items)
    if not current or not fails(current):
        return []
    granularity = 2
    while len(current) >= 2:
        chunk = -(-len(current) // granularity)
        reduced = False
        for start in range(0, len(current), chunk):
            candidate = current[:start] + current[start + chunk :]
            if candidate and fails(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


def shrink_schedule(
    scenario: str | ChaosScenario,
    seed: int = 0,
    schedule: t.Sequence[ScheduledFault] | None = None,
    invariant_factory: InvariantFactory | None = None,
    max_runs: int = 80,
) -> list[ScheduledFault]:
    """Minimal failing fault schedule for ``(scenario, seed)``.

    Re-runs the campaign on sublists of the schedule (each run is fully
    deterministic, so the search is sound).  Returns ``[]`` when the
    full schedule does not violate anything; otherwise a ddmin-minimal
    failing schedule, possibly unminimised if ``max_runs`` is hit.
    """
    spec = _resolve(scenario)
    if schedule is None:
        schedule = spec.build_schedule(np.random.default_rng(seed))
    runs = 0
    best: list[ScheduledFault] = []

    def fails(candidate: t.Sequence[ScheduledFault]) -> bool:
        nonlocal runs, best
        if runs >= max_runs:
            raise _ShrinkBudgetExhausted
        runs += 1
        report = run_scenario(
            spec, seed=seed, schedule=candidate, invariant_factory=invariant_factory
        )
        if report.total_violations > 0 and (not best or len(candidate) < len(best)):
            best = list(candidate)
        return report.total_violations > 0

    try:
        return ddmin(list(schedule), fails)
    except _ShrinkBudgetExhausted:
        return best
