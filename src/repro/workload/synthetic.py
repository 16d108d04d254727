"""Calibrated synthetic workload generation.

``generate_trace`` produces :class:`~repro.sched.job.Job` lists whose
marginal statistics match everything the paper reports about its
production traces — see the package docstring for the list.  Two
presets mirror Table III's systems: Tianhe-2A (mature machine, stable
users, long-range correlation ≈0.3) and NG-Tianhe (young machine,
drifting users, correlation decays towards 0).
"""

from __future__ import annotations

import math
import typing as t
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from repro.errors import ConfigurationError
from repro.sched.job import Job
from repro.workload.draws import uniform
from repro.workload.users import AppPool, UserModel, make_users

HOUR = 3600.0
DAY = 24 * HOUR


@dataclass(frozen=True)
class WorkloadConfig:
    """Synthetic workload parameters.

    Args:
        n_users: user population size.
        n_apps: global application-pool size (community codes).
        apps_per_user: repertoire size (smaller -> more repetition).
        jobs_per_day: mean arrival rate.
        max_nodes: largest job size to generate.
        repeat_prob: chance a submission reruns something from the
            user's last 24 h (paper: 89.2 %).
        overestimate_prob: chance the user's wall request exceeds the
            true runtime (paper Fig. 5a: 80-90 %).
        overestimate_sigma: spread of the overestimation factor.
        long_job_fraction: fraction of apps whose jobs run > 6 h.
        evening_bias: fraction of long-job submissions pushed into the
            18:00-24:00 window (paper: 71.4 %).
        no_estimate_prob: chance a user submits no wall request at all.
        user_drift_per_day: expected repertoire swaps per user per day
            (young NG-Tianhe users exploring new codes; drives Fig. 5b's
            long-interval decay to ~0).
        burst_mean: mean size of a submission burst — users submit the
            same script several times back-to-back (sweeps, job arrays),
            which correlates adjacent job IDs in Fig. 5c.
        malleable_fraction: chance a generated job is *elastic* — it
            declares ``min_nodes``/``max_nodes`` around its request and
            accepts runtime grow/shrink (the DMR model; 0.0 keeps the
            paper's rigid traces byte-identical).
        name: preset label.
    """

    n_users: int = 64
    n_apps: int = 40
    apps_per_user: int = 3
    jobs_per_day: float = 1500.0
    max_nodes: int = 1024
    repeat_prob: float = 0.892
    overestimate_prob: float = 0.85
    overestimate_sigma: float = 0.8
    long_job_fraction: float = 0.2
    evening_bias: float = 0.714
    no_estimate_prob: float = 0.05
    user_drift_per_day: float = 0.0
    burst_mean: float = 3.0
    session_hours: float = 14.0
    session_gap_hours: float = 30.0
    malleable_fraction: float = 0.0
    name: str = "generic"

    def __post_init__(self) -> None:
        # Comparisons are written so that NaN fails them too.
        for p in (
            self.repeat_prob,
            self.overestimate_prob,
            self.long_job_fraction,
            self.evening_bias,
            self.no_estimate_prob,
            self.malleable_fraction,
        ):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError("probabilities must be in [0, 1]")
        if self.n_users < 1 or not 0 < self.jobs_per_day < math.inf or self.max_nodes < 1:
            raise ConfigurationError("invalid population/rate/size parameters")
        if self.n_apps < 1 or self.apps_per_user < 1 or self.user_drift_per_day < 0:
            raise ConfigurationError("invalid app-pool/drift parameters")
        for name in ("overestimate_sigma", "session_hours", "session_gap_hours"):
            if not getattr(self, name) >= 0.0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")

    @classmethod
    def tianhe2a(cls, **overrides: t.Any) -> "WorkloadConfig":
        """Mature machine: stable users, strong long-range correlation."""
        cfg = cls(
            n_users=48,
            n_apps=30,
            apps_per_user=4,
            jobs_per_day=1700.0,
            max_nodes=4096,
            user_drift_per_day=0.0,
            name="tianhe2a",
        )
        return replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def ng_tianhe(cls, **overrides: t.Any) -> "WorkloadConfig":
        """Young machine: drifting users, correlation decays towards 0."""
        cfg = cls(
            n_users=80,
            n_apps=60,
            apps_per_user=6,
            jobs_per_day=300.0,
            max_nodes=8192,
            user_drift_per_day=2.0,
            name="ng-tianhe",
        )
        return replace(cfg, **overrides) if overrides else cfg


def _submission_hour(long_running: bool, cfg: WorkloadConfig, rng: np.random.Generator) -> float:
    """Hour-of-day respecting the evening bias for long jobs."""
    if long_running and rng.random() < cfg.evening_bias:
        return uniform(rng, 18.0, 24.0)
    return uniform(rng, 0.0, 24.0)


def _user_estimate(runtime_s: float, cfg: WorkloadConfig, rng: np.random.Generator) -> float | None:
    """Fig. 5a behaviour: usually a (often heavy) overestimate."""
    if rng.random() < cfg.no_estimate_prob:
        return None
    if rng.random() < cfg.overestimate_prob:
        factor = 1.0 + float(rng.lognormal(0.0, cfg.overestimate_sigma))
    else:
        factor = uniform(rng, 0.55, 1.0)
    # Users round up to "nice" wall times (multiples of 10 minutes).
    est = runtime_s * factor
    return max(600.0 * math.ceil(est / 600.0), 600.0)


def generate_trace(
    config: WorkloadConfig,
    n_jobs: int,
    seed: int = 0,
    start_time: float = 0.0,
    job_id_base: int = 0,
) -> list[Job]:
    """Generate ``n_jobs`` jobs, submit-time ordered.

    Deterministic given (config, n_jobs, seed).
    """
    if n_jobs < 0:
        raise ConfigurationError("n_jobs cannot be negative")
    rng = np.random.default_rng(seed)
    pool = AppPool(config.n_apps, config.max_nodes, config.long_job_fraction, rng)
    users = make_users(config.n_users, config.apps_per_user, pool, rng)
    jobs: list[Job] = []
    now = start_time
    mean_gap = DAY / config.jobs_per_day
    next_drift = now + DAY
    session_s = config.session_hours * HOUR
    gap_s = config.session_gap_hours * HOUR
    # Every draw below is made in the order the trace's contract fixes:
    # reordering, batching or skipping one changes every later job.
    while len(jobs) < n_jobs:
        now += float(rng.exponential(mean_gap))
        # Daily repertoire drift (young-machine user behaviour).
        while now >= next_drift:
            if config.user_drift_per_day > 0:
                n_swaps = rng.poisson(config.user_drift_per_day, size=len(users))
                for user, k in zip(users, n_swaps):
                    for _ in range(int(k)):
                        user.drift(pool, rng)
            next_drift += DAY
        # Pick an *active* user (retrying a bounded number of times so the
        # arrival rate holds even when many users are idle).
        user = users[int(rng.integers(len(users)))]
        for _ in range(20):
            if user.ensure_session(now, session_s, gap_s, rng):
                break
            user = users[int(rng.integers(len(users)))]
        app = user.pick_app(now, config.repeat_prob, rng)
        # Re-anchor the submission to an hour that matches the app class.
        day_start = math.floor(now / DAY) * DAY
        hour = _submission_hour(app.long_running, config, rng)
        submit = day_start + hour * HOUR
        # One arrival = a burst of near-identical submissions (sweeps,
        # job arrays); bursts are what correlate adjacent job IDs.
        burst = int(rng.geometric(1.0 / config.burst_mean)) if config.burst_mean > 1 else 1
        burst = max(1, min(burst, n_jobs - len(jobs)))
        nodes = app.sample_nodes(rng, config.max_nodes)
        for b in range(burst):
            runtime = max(app.sample_runtime(rng, nodes), 10.0)
            # Elastic-job range (DMR model): strictly gated so the RNG
            # stream — and hence every existing trace — is untouched
            # when the fraction is 0.
            min_nodes = max_nodes = 0
            if config.malleable_fraction > 0.0 and rng.random() < config.malleable_fraction:
                min_nodes = max(1, nodes // 2)
                max_nodes = max(min(config.max_nodes, nodes * 2), nodes)
            jobs.append(
                Job(
                    job_id=job_id_base + len(jobs),
                    name=app.name,
                    user=user.name,
                    n_nodes=nodes,
                    runtime_s=runtime,
                    user_estimate_s=_user_estimate(runtime, config, rng),
                    submit_time=submit + b * uniform(rng, 1.0, 30.0),
                    min_nodes=min_nodes,
                    max_nodes=max_nodes,
                )
            )
    jobs.sort(key=attrgetter("submit_time"))
    # Job ids must follow submission order (Fig. 5c is keyed on ID gap).
    for i, job in enumerate(jobs):
        job.job_id = job_id_base + i
    return jobs
