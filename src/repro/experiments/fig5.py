"""Fig. 5 driver: workload-trace statistics.

(a) CDF of the user runtime-estimation accuracy P = t_s / t_r;
(b) job-correlation ratio vs submission interval;
(c) job-correlation ratio vs job-ID gap —
for both trace profiles (Tianhe-2A and NG-Tianhe).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.reporting import render_series
from repro.workload.analysis import (
    estimate_accuracy_values,
    job_correlation_by_id_gap,
    job_correlation_by_interval,
)
from repro.workload.synthetic import WorkloadConfig, generate_trace

#: buckets matching the paper's x-axes
INTERVAL_HOURS = (0.5, 2.0, 6.0, 12.0, 24.0, 30.0, 40.0, 60.0)
ID_GAPS = (1, 10, 50, 100, 400, 700, 1500)
P_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0)


@dataclass
class Fig5Result:
    """Per-system curves for the three subfigures."""

    system: str
    p_cdf: dict[float, float]  # P threshold -> CDF value
    overestimate_frac: float
    interval_hours: tuple[float, ...] = INTERVAL_HOURS
    #: ``None`` for a bucket the trace has no pair in
    interval_corr: list[float | None] = field(default_factory=list)
    id_gaps: tuple[int, ...] = ID_GAPS
    id_gap_corr: list[float | None] = field(default_factory=list)


def run_fig5(n_jobs: int = 12_000, seed: int = 1) -> dict[str, Fig5Result]:
    """Regenerate Fig. 5's three panels for both systems."""
    out: dict[str, Fig5Result] = {}
    configs = {
        "tianhe2a": WorkloadConfig.tianhe2a(),
        "ng-tianhe": WorkloadConfig.ng_tianhe(jobs_per_day=1000.0),
    }
    for system, cfg in configs.items():
        jobs = generate_trace(cfg, n_jobs, seed=seed)
        P = estimate_accuracy_values(jobs)
        cdf = {thr: float((P <= thr).mean()) for thr in P_GRID}
        out[system] = Fig5Result(
            system=system,
            p_cdf=cdf,
            overestimate_frac=float((P > 1.0).mean()),
            interval_corr=job_correlation_by_interval(jobs, INTERVAL_HOURS, seed=seed),
            id_gap_corr=job_correlation_by_id_gap(jobs, ID_GAPS, seed=seed),
        )
    return out


def render_fig5(results: dict[str, Fig5Result]) -> str:
    """Paper-style text rendering of all three panels."""
    blocks = []
    for system, r in results.items():
        blocks.append(f"== {system} ==  (overestimated: {r.overestimate_frac:.1%})")
        blocks.append(
            render_series(
                "P<=",
                list(r.p_cdf.keys()),
                {"CDF": list(r.p_cdf.values())},
                title="Fig 5a: estimate-accuracy CDF",
            )
        )
        blocks.append(
            render_series(
                "interval_h",
                list(r.interval_hours),
                {"corr_ratio": r.interval_corr},
                title="Fig 5b: correlation vs submission interval",
            )
        )
        blocks.append(
            render_series(
                "id_gap",
                list(r.id_gaps),
                {"corr_ratio": r.id_gap_corr},
                title="Fig 5c: correlation vs job-ID gap",
            )
        )
    return "\n".join(blocks)
