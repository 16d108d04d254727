"""The fixed bench scenario matrix.

The matrix crosses the paper's structural comparison (centralized Slurm
vs ESLURM) with the machine sizes of Section VII (1K / 4K / 16K nodes)
and the failure injector on/off — twelve scenarios that exercise every
instrumented subsystem: the event loop, the broadcast fabric, satellite
allocation, the scheduler, and (for ESLURM) the runtime estimator.

Scenario runs are sized to finish in seconds each, not to reproduce the
paper's absolute numbers: a bench file is a *regression anchor* — the
same scenario at the same seed must produce the same JSON, and future
perf PRs compare events/sec and per-subsystem counters against it.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from repro.api import SimulationConfig, TelemetryConfig
from repro.errors import ConfigurationError
from repro.workload.synthetic import WorkloadConfig

DAY = 86_400.0

#: simulated horizon of every matrix scenario (4 h keeps the largest
#: machine under a minute of host time while still crossing dozens of
#: heartbeat and scheduler cycles)
HORIZON_S = 4 * 3600.0


@dataclass(frozen=True)
class BenchScenario:
    """One cell of the matrix.

    ``malleable_fraction`` / ``placement`` select the elastic-job
    protocol and the node-placement policy; both default to the rigid/
    first-fit setting so every pre-existing ``BENCH_*.json`` anchor
    stays byte-identical.
    """

    name: str
    rm: str
    n_nodes: int
    n_satellites: int
    failures: bool
    n_jobs: int
    horizon_s: float = HORIZON_S
    malleable_fraction: float = 0.0
    placement: str = "first-fit"

    def workload(self) -> WorkloadConfig:
        """Jobs paced to land inside the horizon (chaos-harness pacing)."""
        return WorkloadConfig(
            jobs_per_day=self.n_jobs * DAY / (0.6 * self.horizon_s),
            max_nodes=max(1, self.n_nodes // 4),
            malleable_fraction=self.malleable_fraction,
            name=f"bench-{self.name}",
        )

    def simulation_config(self, seed: int) -> SimulationConfig:
        return SimulationConfig(
            rm=self.rm,
            n_nodes=self.n_nodes,
            n_satellites=self.n_satellites,
            seed=seed,
            failures=self.failures,
            n_jobs=self.n_jobs,
            horizon_s=self.horizon_s,
            workload=self.workload(),
            estimator="auto" if self.rm == "eslurm" else None,
            telemetry=TelemetryConfig(enabled=True),
            placement=self.placement,
            malleable=self.malleable_fraction > 0.0,
        )

    @property
    def file_stem(self) -> str:
        """``BENCH_<name>`` with filesystem-friendly separators."""
        return "BENCH_" + self.name.replace("-", "_")


def _matrix() -> dict[str, BenchScenario]:
    scenarios = {}
    for rm in ("slurm", "eslurm"):
        for n_nodes in (1024, 4096, 16_384):
            for failures in (False, True):
                name = f"{rm}-{n_nodes}" + ("-failures" if failures else "")
                scenarios[name] = BenchScenario(
                    name=name,
                    rm=rm,
                    n_nodes=n_nodes,
                    # ESLURM satellite pools grow with the machine (Eq. 1's m)
                    n_satellites=max(2, n_nodes // 2048),
                    failures=failures,
                    # the generator spreads submissions diurnally over a
                    # 24 h day, so roughly horizon/day of these land in
                    # the window — 600 yields ~100 scheduled jobs
                    n_jobs=600,
                )
    return scenarios


#: name -> scenario, insertion-ordered smallest-first per RM
SCENARIOS: dict[str, BenchScenario] = _matrix()

#: the scenario ``make bench-smoke`` runs (smallest, deterministic machine)
SMOKE_SCENARIO = "slurm-1024"


#: the paper-scale machine sizes: the Section VII trio plus the
#: ROADMAP's next order of magnitude (65K / 131K nodes)
PAPER_TIER_SIZES = (1024, 4096, 16_384, 65_536, 131_072)


def _paper_scale() -> dict[str, BenchScenario]:
    tiers = {}
    for n_nodes in PAPER_TIER_SIZES:
        name = f"paper-{n_nodes}"
        tiers[name] = BenchScenario(
            name=name,
            rm="eslurm",
            n_nodes=n_nodes,
            n_satellites=max(2, n_nodes // 2048),
            failures=True,
            n_jobs=10_000,
            horizon_s=DAY,
        )
    # Small-step variant of the 65K tier, anchor-checked in tier-1:
    # the full machine is built — so the array-backed node state and the
    # event kernel are exercised at scale — but over the 4 h matrix
    # horizon with a matching slice of the workload, keeping the smoke
    # run seconds-long where the full tier is --slow territory.
    tiers["paper-65536-smoke"] = BenchScenario(
        name="paper-65536-smoke",
        rm="eslurm",
        n_nodes=65_536,
        n_satellites=32,
        failures=True,
        n_jobs=2_000,
        horizon_s=HORIZON_S,
    )
    # Elastic and topology-aware variants of the smallest tier: same
    # machine and workload volume, but with half the jobs malleable
    # (resp. the topology-aware placement policy) so the malleability
    # protocol and placement scoring have their own wall-time anchors.
    tiers["paper-1024-malleable"] = BenchScenario(
        name="paper-1024-malleable",
        rm="eslurm",
        n_nodes=1024,
        n_satellites=2,
        failures=True,
        n_jobs=10_000,
        horizon_s=DAY,
        malleable_fraction=0.5,
    )
    tiers["paper-1024-topology"] = BenchScenario(
        name="paper-1024-topology",
        rm="eslurm",
        n_nodes=1024,
        n_satellites=2,
        failures=True,
        n_jobs=10_000,
        horizon_s=DAY,
        placement="topology",
    )
    return tiers


#: The paper-scale tiers: ESLURM with failure injection driving 10K jobs
#: over one simulated day at the Section VII machine sizes.  Unlike the
#: matrix above these are sized like the paper's own workload; their
#: deterministic anchors live in ``benchmarks/BENCH_paper_scale.json``.
PAPER_SCALE: dict[str, BenchScenario] = _paper_scale()


def get_scenario(name: str) -> BenchScenario:
    scenario = SCENARIOS.get(name) or PAPER_SCALE.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown bench scenario {name!r}; choose from "
            f"{sorted([*SCENARIOS, *PAPER_SCALE])}"
        )
    return scenario
