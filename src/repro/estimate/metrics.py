"""Estimation-accuracy metrics (Eq. 4/5) and the replay evaluator.

``EA`` for one job (Eq. 4)::

    EA_i = t_p/t_r   if t_p < t_r   (underestimate)
           t_r/t_p   otherwise       (overestimate)

``AEA`` (Eq. 5) is the plain mean of EA over jobs; ``UR`` is the
fraction of underestimates — the dangerous direction, since a job
running past an underestimated wall limit is killed.

``evaluate_estimator`` replays a trace through any online estimator:
each job is *estimated* at its submission event and *observed* at its
completion event, with both event streams interleaved in time order so
models can never peek at a future completion.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from repro.errors import EstimationError
from repro.sched.job import Job


class RuntimeEstimator(t.Protocol):
    """Protocol every runtime-estimation model implements."""

    name: str

    def estimate(self, job: Job, now: float) -> float | None:
        """Predicted runtime in seconds at submission, or ``None`` when
        the model has nothing to say yet."""
        ...  # pragma: no cover - protocol body

    def observe(self, job: Job, now: float) -> None:
        """Ingest one completed job (actual runtime now known)."""
        ...  # pragma: no cover - protocol body


def estimation_accuracy(t_p: float, t_r: float) -> float:
    """Eq. 4 for one job; in (0, 1], 1 = exact."""
    if t_p <= 0 or t_r <= 0:
        raise EstimationError("EA needs positive predicted and actual runtimes")
    return t_p / t_r if t_p < t_r else t_r / t_p


@dataclass
class EstimatorReport:
    """Replay outcome for one estimator."""

    name: str
    n_jobs: int
    n_estimated: int
    aea: float
    underestimate_rate: float
    mean_abs_error_s: float


def evaluate_estimator(
    estimator: RuntimeEstimator,
    jobs: t.Sequence[Job],
    warmup: int = 0,
) -> EstimatorReport:
    """Replay ``jobs`` through ``estimator`` and score its estimates.

    Completion events are placed at ``submit_time + runtime_s`` (jobs
    replayed as if started immediately), keeping the causal order
    between what a model may learn and what it must predict.

    Args:
        estimator: any :class:`RuntimeEstimator`.
        jobs: trace in any order; sorted internally by submit time.
        warmup: skip the first ``warmup`` submissions when scoring
            (models still observe them).
    """
    ordered = sorted(jobs, key=lambda j: j.submit_time)
    events: list[tuple[float, int, int, Job]] = []
    for i, job in enumerate(ordered):
        events.append((job.submit_time, 1, i, job))  # estimate
        events.append((job.submit_time + job.runtime_s, 0, i, job))  # observe first on ties
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    eas: list[float] = []
    errors: list[float] = []
    n_under = 0
    n_estimated = 0
    for when, kind, i, job in events:
        if kind == 0:
            estimator.observe(job, now=when)
            continue
        pred = estimator.estimate(job, now=when)
        if pred is None or i < warmup:
            continue
        n_estimated += 1
        eas.append(estimation_accuracy(pred, job.runtime_s))
        errors.append(abs(pred - job.runtime_s))
        if pred < job.runtime_s:
            n_under += 1
    return EstimatorReport(
        name=getattr(estimator, "name", type(estimator).__name__),
        n_jobs=len(ordered),
        n_estimated=n_estimated,
        aea=float(np.mean(eas)) if eas else 0.0,
        underestimate_rate=n_under / n_estimated if n_estimated else 0.0,
        mean_abs_error_s=float(np.mean(errors)) if errors else 0.0,
    )
