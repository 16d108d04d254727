"""The paper-scale tiers and the scenario shape the e2e harness shares.

:data:`PAPER_SCALE` holds the Section VII machine sizes as
:class:`BenchScenario` values; each tier's recording-seed config is a
golden scenario (:data:`repro.oracle.golden.GOLDEN_SCENARIOS`), so its
event stream is pinned by digest under ``tests/golden/``.  The
``benchmarks/e2e`` workloads are :class:`BenchScenario` values too.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from repro.api import SimulationConfig
from repro.workload.synthetic import WorkloadConfig

DAY = 86_400.0

#: default simulated horizon (4 h crosses dozens of heartbeat and
#: scheduler cycles)
HORIZON_S = 4 * 3600.0


@dataclass(frozen=True)
class BenchScenario:
    """One machine-and-workload shape.

    ``malleable_fraction`` / ``placement`` select the elastic-job
    protocol and the node-placement policy; both default to the rigid/
    first-fit setting.
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
            placement=self.placement,
            malleable=self.malleable_fraction > 0.0,
        )


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
    # Small-step variant of the 65K tier: the full machine is built —
    # so the array-backed node state and the event kernel are exercised
    # at scale — but over a 4 h horizon with a matching slice of the
    # workload.
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
    # protocol and placement scoring have their own anchors.
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
#: over one simulated day at the Section VII machine sizes, sized like
#: the paper's own workload.
PAPER_SCALE: dict[str, BenchScenario] = _paper_scale()

