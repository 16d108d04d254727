"""Trace analysis reproducing the measurements behind Fig. 5.

The paper defines two jobs as *correlated* when they have "similar job
names, required resources, and job runtime"; the *job correlation
ratio* is the fraction of correlated pairs among pairs satisfying a
condition (submission interval in a bucket, or job-ID gap in a bucket).
All-pairs is O(n²), so both ratio functions subsample pairs uniformly —
with a seeded generator, keeping every figure deterministic.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.errors import ConfigurationError
from repro.sched.job import Job


def estimate_accuracy_values(jobs: t.Sequence[Job]) -> np.ndarray:
    """P = t_s / t_r for every job carrying a user estimate (Fig. 5a).

    P > 1 is an overestimate.  Sorted ascending, ready for a CDF plot.
    """
    vals = [
        j.user_estimate_s / j.runtime_s for j in jobs if j.user_estimate_s is not None
    ]
    return np.sort(np.asarray(vals, dtype=float))


def jobs_correlated(a: Job, b: Job, runtime_rtol: float = 0.5, nodes_rtol: float = 1.0) -> bool:
    """The paper's correlation predicate for a job pair."""
    if a.name != b.name:
        return False
    big_n, small_n = max(a.n_nodes, b.n_nodes), min(a.n_nodes, b.n_nodes)
    if big_n > small_n * (1 + nodes_rtol):
        return False
    big_r, small_r = max(a.runtime_s, b.runtime_s), min(a.runtime_s, b.runtime_s)
    return big_r <= small_r * (1 + runtime_rtol)


def _same_user_pairs_in_interval(
    by_user: dict[str, list[Job]],
    lo_s: float,
    hi_s: float,
    max_pairs: int,
    rng: np.random.Generator,
) -> t.Iterator[tuple[Job, Job]]:
    """Sample *same-user* job pairs with submission gap in [lo_s, hi_s).

    Fig. 5b's interval condition is over a user's own submission
    stream — that is where the "will they run the same thing again"
    locality lives; cross-user pairs are uncorrelated by construction.
    """
    users = [u for u, js in by_user.items() if len(js) >= 2]
    if not users:
        return
    submit_arrays = {u: np.array([j.submit_time for j in by_user[u]]) for u in users}
    weights = np.array([len(by_user[u]) for u in users], dtype=float)
    weights /= weights.sum()
    count = 0
    attempts = 0
    max_attempts = max_pairs * 50
    while count < max_pairs and attempts < max_attempts:
        attempts += 1
        user = users[int(rng.choice(len(users), p=weights))]
        jobs_u = by_user[user]
        submits = submit_arrays[user]
        i = int(rng.integers(len(jobs_u)))
        lo_idx = int(np.searchsorted(submits, submits[i] + lo_s, side="left"))
        hi_idx = int(np.searchsorted(submits, submits[i] + hi_s, side="left"))
        if hi_idx <= lo_idx:
            continue
        j = int(rng.integers(lo_idx, hi_idx))
        if j == i:
            continue
        count += 1
        yield jobs_u[i], jobs_u[j]


def job_correlation_by_interval(
    jobs: t.Sequence[Job],
    interval_hours: t.Sequence[float],
    max_pairs: int = 2000,
    seed: int = 0,
) -> list[float | None]:
    """Correlation ratio per submission-interval bucket (Fig. 5b).

    Bucket ``h`` covers gaps in [h, h + bucket width) where the width is
    the spacing of ``interval_hours``.  A bucket no same-user pair
    falls in (the trace spans less than its gap) is ``None``.
    """
    if not interval_hours:
        raise ConfigurationError("need at least one interval bucket")
    by_user: dict[str, list[Job]] = {}
    for job in sorted(jobs, key=lambda j: j.submit_time):
        by_user.setdefault(job.user, []).append(job)
    hours = list(interval_hours)
    widths = [b - a for a, b in zip(hours, hours[1:])] or [1.0]
    widths.append(widths[-1])
    rng = np.random.default_rng(seed)
    ratios = []
    for h, w in zip(hours, widths):
        pairs = list(
            _same_user_pairs_in_interval(by_user, h * 3600.0, (h + w) * 3600.0, max_pairs, rng)
        )
        ratios.append(
            sum(jobs_correlated(a, b) for a, b in pairs) / len(pairs) if pairs else None
        )
    return ratios


def job_correlation_by_id_gap(
    jobs: t.Sequence[Job],
    gaps: t.Sequence[int],
    max_pairs: int = 2000,
    seed: int = 0,
) -> list[float | None]:
    """Correlation ratio per job-ID-gap bucket (Fig. 5c).

    Jobs are indexed in submission order; bucket ``g`` samples pairs
    whose index distance is within ±25 % of ``g``.  A bucket no pair
    fits in (fewer jobs than its gap) is ``None``.
    """
    if not gaps:
        raise ConfigurationError("need at least one gap bucket")
    ordered = sorted(jobs, key=lambda j: j.submit_time)
    n = len(ordered)
    rng = np.random.default_rng(seed)
    ratios = []
    for g in gaps:
        if g < 1:
            raise ConfigurationError("id gaps must be >= 1")
        lo, hi = max(1, int(g * 0.75)), max(2, int(g * 1.25) + 1)
        pairs = []
        attempts = 0
        while len(pairs) < max_pairs and attempts < max_pairs * 20:
            attempts += 1
            i = int(rng.integers(n))
            d = int(rng.integers(lo, hi))
            if i + d >= n:
                continue
            pairs.append((ordered[i], ordered[i + d]))
        ratios.append(
            sum(jobs_correlated(a, b) for a, b in pairs) / len(pairs) if pairs else None
        )
    return ratios
