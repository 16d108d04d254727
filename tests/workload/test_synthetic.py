"""Tests for the calibrated workload generator.

The calibration targets are the paper's reported trace statistics;
each one is asserted here as an invariant of the generator.
"""

from collections import Counter

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sched.job import Job
from repro.workload import WorkloadConfig, generate_trace
from repro.workload.users import AppPool


def trace(cfg=None, n=4000, seed=0):
    return generate_trace(cfg or WorkloadConfig.tianhe2a(), n, seed=seed)


class TestBasics:
    def test_count_and_order(self):
        jobs = trace(n=500)
        assert len(jobs) == 500
        submits = [j.submit_time for j in jobs]
        assert submits == sorted(submits)

    def test_ids_follow_submission_order(self):
        jobs = trace(n=500)
        assert [j.job_id for j in jobs] == list(range(500))

    def test_deterministic(self):
        a = trace(n=300, seed=5)
        b = trace(n=300, seed=5)
        assert [(j.name, j.submit_time, j.runtime_s) for j in a] == [
            (j.name, j.submit_time, j.runtime_s) for j in b
        ]

    def test_seed_changes_trace(self):
        a = trace(n=300, seed=1)
        b = trace(n=300, seed=2)
        assert [j.runtime_s for j in a] != [j.runtime_s for j in b]

    def test_zero_jobs(self):
        assert trace(n=0) == []

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_trace(WorkloadConfig(), -1)

    def test_job_id_base(self):
        jobs = generate_trace(WorkloadConfig(), 10, job_id_base=100)
        assert jobs[0].job_id == 100

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(repeat_prob=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(n_users=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("overestimate_sigma", -1.0),
            ("overestimate_sigma", float("nan")),
            ("session_hours", -1.0),
            ("session_gap_hours", -1.0),
            ("jobs_per_day", float("nan")),
            ("jobs_per_day", float("inf")),
            ("long_job_fraction", 1.5),
            ("long_job_fraction", -0.1),
        ],
    )
    def test_invalid_field_rejected_at_construction(self, field, value):
        # each of these used to fail deep in numpy, or not at all
        with pytest.raises(ConfigurationError):
            WorkloadConfig(**{field: value})

    def test_zero_scales_accepted(self):
        cfg = WorkloadConfig(overestimate_sigma=0.0, session_hours=0.0, session_gap_hours=0.0)
        assert len(generate_trace(cfg, 50)) == 50

    def test_sizes_bounded(self):
        cfg = WorkloadConfig(max_nodes=64)
        assert all(1 <= j.n_nodes <= 64 for j in trace(cfg, n=1000))


class TestPaperCalibration:
    """Each paper-reported statistic, asserted with tolerance."""

    def test_overestimation_fraction_80_90(self):
        jobs = trace(n=5000, seed=3)
        with_est = [j for j in jobs if j.user_estimate_s is not None]
        over = sum(j.user_estimate_s > j.runtime_s for j in with_est)
        assert 0.78 <= over / len(with_est) <= 0.92

    def test_long_jobs_evening_biased(self):
        jobs = trace(n=8000, seed=4)
        long_jobs = [j for j in jobs if j.runtime_s > 6 * 3600]
        assert len(long_jobs) > 100
        evening = sum(18 <= (j.submit_time // 3600) % 24 < 24 for j in long_jobs)
        frac = evening / len(long_jobs)
        # paper: 71.4% of >6h jobs submitted between 18:00 and 24:00
        assert 0.55 <= frac <= 0.85

    def test_repetition_within_a_day(self):
        jobs = trace(n=5000, seed=5)
        # Group by user; count submissions repeating a (user, name) seen
        # in that user's previous 24h.
        last_seen: dict[tuple[str, str], float] = {}
        seen_user: dict[str, float] = {}
        repeats = eligible = 0
        for j in jobs:
            if j.user in seen_user and j.submit_time - seen_user[j.user] <= 86_400:
                eligible += 1
                key = (j.user, j.name)
                if key in last_seen and j.submit_time - last_seen[key] <= 86_400:
                    repeats += 1
            seen_user[j.user] = j.submit_time
            last_seen[(j.user, j.name)] = j.submit_time
        assert repeats / eligible > 0.6  # paper: 89.2% same-job resubmission

    def test_estimates_rounded_to_ten_minutes(self):
        jobs = trace(n=500)
        for j in jobs:
            if j.user_estimate_s is not None:
                assert j.user_estimate_s % 600 == 0

    def test_some_jobs_without_estimates(self):
        jobs = trace(n=3000, seed=6)
        missing = sum(j.user_estimate_s is None for j in jobs)
        assert 0 < missing < 0.15 * len(jobs)


class TestAppPool:
    def test_zipf_concentration(self):
        rng = np.random.default_rng(0)
        pool = AppPool(40, max_nodes=1024, long_job_fraction=0.2, rng=rng)
        draws = Counter(pool.sample(rng).name for _ in range(5000))
        # Σ share²: the chance two draws hit the same app
        conc = sum((n / 5000) ** 2 for n in draws.values())
        assert 0.02 < conc < 0.3  # skewed but not degenerate

    def test_empty_pool_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            AppPool(0, 10, 0.1, rng)

    def test_shared_names_across_users(self):
        jobs = trace(n=3000, seed=7)
        names_by_user: dict[str, set] = {}
        for j in jobs:
            names_by_user.setdefault(j.user, set()).add(j.name)
        all_names = set().union(*names_by_user.values())
        # community codes: fewer distinct apps than users x repertoire
        assert len(all_names) <= 30
