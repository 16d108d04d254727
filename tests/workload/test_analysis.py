"""Tests for the Fig. 5 trace-analysis functions."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sched.job import Job
from repro.workload import (
    WorkloadConfig,
    estimate_accuracy_values,
    generate_trace,
    job_correlation_by_id_gap,
    job_correlation_by_interval,
)
from repro.workload.analysis import jobs_correlated


def job(job_id=0, name="a", user="u", nodes=4, runtime=100.0, est=None, submit=0.0):
    return Job(job_id, name, user, nodes, runtime, est, submit)


class TestAccuracyValues:
    def test_p_definition(self):
        jobs = [job(est=200.0, runtime=100.0), job(job_id=1, est=50.0, runtime=100.0)]
        P = estimate_accuracy_values(jobs)
        np.testing.assert_allclose(P, [0.5, 2.0])

    def test_jobs_without_estimates_skipped(self):
        jobs = [job(est=None), job(job_id=1, est=100.0)]
        assert len(estimate_accuracy_values(jobs)) == 1

    def test_sorted_output(self):
        jobs = generate_trace(WorkloadConfig(), 500, seed=1)
        P = estimate_accuracy_values(jobs)
        assert (np.diff(P) >= 0).all()


class TestCorrelationPredicate:
    def test_same_everything_correlated(self):
        assert jobs_correlated(job(), job(job_id=1))

    def test_different_name_not_correlated(self):
        assert not jobs_correlated(job(name="a"), job(job_id=1, name="b"))

    def test_far_runtime_not_correlated(self):
        assert not jobs_correlated(job(runtime=100.0), job(job_id=1, runtime=1000.0))

    def test_far_nodes_not_correlated(self):
        assert not jobs_correlated(job(nodes=4), job(job_id=1, nodes=64))

    def test_symmetry(self):
        a, b = job(runtime=100.0), job(job_id=1, runtime=130.0)
        assert jobs_correlated(a, b) == jobs_correlated(b, a)


class TestFig5Shapes:
    """The qualitative claims of Fig. 5b/5c as assertions."""

    @pytest.fixture(scope="class")
    def t2a(self):
        return generate_trace(WorkloadConfig.tianhe2a(), 12_000, seed=1)

    @pytest.fixture(scope="class")
    def ng(self):
        return generate_trace(WorkloadConfig.ng_tianhe(jobs_per_day=1000.0), 12_000, seed=1)

    def test_interval_correlation_decays(self, t2a):
        ratios = job_correlation_by_interval(t2a, [0.5, 30.0], seed=2)
        assert ratios[0] > ratios[1] + 0.1

    def test_tianhe2a_floor_higher_than_ng(self, t2a, ng):
        r_t2a = job_correlation_by_interval(t2a, [40.0], seed=3)[0]
        r_ng = job_correlation_by_interval(ng, [40.0], seed=3)[0]
        assert r_t2a > r_ng  # mature machine keeps a correlation floor

    def test_id_gap_correlation_decays(self, t2a):
        ratios = job_correlation_by_id_gap(t2a, [1, 700], seed=4)
        assert ratios[0] > ratios[1] + 0.1

    def test_id_gap_floor_small_but_positive(self, t2a):
        floor = job_correlation_by_id_gap(t2a, [1500], seed=5)[0]
        assert 0.0 < floor < 0.25  # paper stabilises around 0.08

    def test_empty_buckets_rejected(self, t2a):
        with pytest.raises(ConfigurationError):
            job_correlation_by_interval(t2a, [])
        with pytest.raises(ConfigurationError):
            job_correlation_by_id_gap(t2a, [])
        with pytest.raises(ConfigurationError):
            job_correlation_by_id_gap(t2a, [0])

    def test_bucket_without_pairs_is_none(self, t2a):
        # Nobody's two jobs lie 1,000 h apart in a 12K-job trace, and no
        # pair of jobs is 100K ids apart: no value, not a 0.0 ratio.
        assert job_correlation_by_interval(t2a, [0.5, 1000.0], seed=2)[1] is None
        ratios = job_correlation_by_id_gap(t2a, [1, 100_000], seed=4)
        assert ratios[0] is not None and ratios[1] is None

    def test_deterministic_given_seed(self, t2a):
        r1 = job_correlation_by_interval(t2a, [1.0, 10.0], seed=9)
        r2 = job_correlation_by_interval(t2a, [1.0, 10.0], seed=9)
        assert r1 == r2
