"""Trace container: an ordered job list with summary helpers."""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from repro.sched.job import Job


@dataclass
class JobTrace:
    """An ordered collection of jobs with summary helpers."""

    jobs: list[Job]
    name: str = "trace"

    def __post_init__(self) -> None:
        self.jobs = sorted(self.jobs, key=lambda j: j.submit_time)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> t.Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, idx: int) -> Job:
        return self.jobs[idx]

    @property
    def span_s(self) -> float:
        """Time between first and last submission."""
        if len(self.jobs) < 2:
            return 0.0
        return self.jobs[-1].submit_time - self.jobs[0].submit_time

    def window(self, t0: float, t1: float) -> "JobTrace":
        """Jobs submitted within [t0, t1)."""
        return JobTrace([j for j in self.jobs if t0 <= j.submit_time < t1], name=self.name)

    def head(self, n: int) -> "JobTrace":
        return JobTrace(self.jobs[:n], name=self.name)

    def stats(self) -> dict[str, float]:
        """Quick-look summary statistics."""
        if not self.jobs:
            return {"n_jobs": 0}
        runtimes = np.array([j.runtime_s for j in self.jobs])
        nodes = np.array([j.n_nodes for j in self.jobs])
        with_est = [j for j in self.jobs if j.user_estimate_s is not None]
        over = [j for j in with_est if j.user_estimate_s > j.runtime_s]
        return {
            "n_jobs": len(self.jobs),
            "n_users": len({j.user for j in self.jobs}),
            "mean_runtime_s": float(runtimes.mean()),
            "median_runtime_s": float(np.median(runtimes)),
            "mean_nodes": float(nodes.mean()),
            "max_nodes": int(nodes.max()),
            "overestimate_frac": len(over) / len(with_est) if with_est else 0.0,
            "span_days": self.span_s / 86_400.0,
        }
