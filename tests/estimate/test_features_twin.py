"""One raw matrix per fit against the per-job encoding it replaced.

``FeatureEncoder.raw_matrix`` encodes each distinct ``feature_key`` once
and gathers the rows; ``fit_transform`` standardises that one matrix.
Both are twinned against the former calls, ``np.stack`` of one ``raw``
per job and ``fit`` followed by ``transform``, with ``array_equal``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimate.features import FeatureEncoder, feature_key
from repro.sched.job import Job


def make_jobs(specs):
    return [
        Job(i, name, user, nodes, 100.0, None, submit, cores_per_node=cores)
        for i, (name, user, nodes, cores, submit) in enumerate(specs)
    ]


def per_job_stack(jobs):
    return np.stack([FeatureEncoder.raw(j) for j in jobs])


job_specs = st.tuples(
    st.sampled_from(["a.sh", "b.sh", "lammps", "wrf", ""]),
    st.sampled_from(["alice", "bob", "carol"]),
    st.sampled_from([1, 2, 8, 1024]),
    st.sampled_from([1, 4, 24]),
    # submissions spread over two days, so hours repeat across days
    st.floats(0.0, 2 * 86_400.0, allow_nan=False),
)

#: job lists where a few distinct specs repeat (the estimator's window)
repeated_jobs = st.lists(job_specs, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)
).map(make_jobs)


def distinct_jobs(n):
    return make_jobs(
        (f"app{i}.sh", f"user{i % 5}", 2 ** (i % 11), 1 + i % 7, i * 1_537.0) for i in range(n)
    )


CASES = {
    "one job": distinct_jobs(1),
    "all distinct": distinct_jobs(80),
    "one key repeated": make_jobs([("a.sh", "alice", 8, 4, 3_600.0)] * 30),
    "repeated keys": make_jobs(
        [("a.sh", "alice", 8, 4, 3_600.0 * (i % 3)) for i in range(40)]
        + [("b.sh", "bob", 2, 24, 7_200.0 + 86_400.0 * i) for i in range(20)]
    ),
}


class TestRawMatrix:
    @pytest.mark.parametrize("case", CASES)
    def test_equals_per_job_stack(self, case):
        jobs = CASES[case]
        assert np.array_equal(FeatureEncoder.raw_matrix(jobs), per_job_stack(jobs))

    def test_keys_repeat_across_days(self):
        jobs = CASES["repeated keys"]
        assert len({feature_key(j) for j in jobs}) == 4

    @settings(max_examples=150, deadline=None)
    @given(repeated_jobs)
    def test_property(self, jobs):
        assert np.array_equal(FeatureEncoder.raw_matrix(jobs), per_job_stack(jobs))


def assert_same_fit(jobs):
    enc, ref = FeatureEncoder(), FeatureEncoder().fit(jobs)
    assert np.array_equal(enc.fit_transform(jobs), ref.transform(jobs))
    assert np.array_equal(enc._mean, ref._mean)
    assert np.array_equal(enc._std, ref._std)
    for j in jobs[:5]:
        assert np.array_equal(enc.transform_one(j, feature_key(j)), ref.transform_one(j))


class TestFitTransform:
    @pytest.mark.parametrize("case", CASES)
    def test_equals_fit_then_transform(self, case):
        assert_same_fit(CASES[case])

    @settings(max_examples=150, deadline=None)
    @given(repeated_jobs)
    def test_property(self, jobs):
        assert_same_fit(jobs)

    def test_refit_drops_the_old_vectors(self):
        enc = FeatureEncoder()
        enc.fit_transform(CASES["all distinct"])
        x = enc.transform_one(CASES["all distinct"][3])
        enc.fit_transform(CASES["all distinct"][:10])
        assert enc.transform_one(CASES["all distinct"][3]) is not x
