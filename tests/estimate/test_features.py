"""Tests for feature encoding."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimate.features import N_FEATURES, FeatureEncoder, submission_hour
from repro.sched.job import Job


def job(name="app.sh", user="alice", nodes=8, submit=0.0, cores=4):
    return Job(0, name, user, nodes, 100.0, None, submit, cores_per_node=cores)


class TestRaw:
    def test_dimension(self):
        assert FeatureEncoder.raw(job()).shape == (N_FEATURES,)

    def test_same_name_same_signature(self):
        a = FeatureEncoder.raw(job(name="x.sh"))
        b = FeatureEncoder.raw(job(name="x.sh", user="bob"))
        np.testing.assert_array_equal(a[:6], b[:6])

    def test_different_names_differ(self):
        a = FeatureEncoder.raw(job(name="x.sh"))
        b = FeatureEncoder.raw(job(name="y.sh"))
        assert not np.array_equal(a[:6], b[:6])

    # feature layout: [0:6] name hash, [6:9] user hash,
    # [9] log2 nodes, [10] log2 cores, [11] sin(hour), [12] cos(hour)

    def test_hour_cyclic_continuity(self):
        # 23:00 and 00:00 should be close in the (sin, cos) plane
        a = FeatureEncoder.raw(job(submit=23 * 3600.0))
        b = FeatureEncoder.raw(job(submit=0.0))
        c = FeatureEncoder.raw(job(submit=12 * 3600.0))
        d_ab = np.linalg.norm(a[11:13] - b[11:13])
        d_ac = np.linalg.norm(a[11:13] - c[11:13])
        assert d_ab < d_ac

    def test_node_feature_monotone(self):
        small = FeatureEncoder.raw(job(nodes=2))
        big = FeatureEncoder.raw(job(nodes=2048))
        assert big[9] > small[9]
        assert big[10] > small[10]  # cores scale with nodes

    def test_submission_hour(self):
        assert submission_hour(job(submit=3600.0 * 25)) == 1


class TestEncoder:
    def test_fit_empty_rejected(self):
        with pytest.raises(EstimationError):
            FeatureEncoder().fit([])

    def test_transform_before_fit_rejected(self):
        with pytest.raises(EstimationError):
            FeatureEncoder().transform([job()])
        with pytest.raises(EstimationError):
            FeatureEncoder().transform_one(job())

    def test_standardisation(self):
        jobs = [job(name=f"a{i}.sh", nodes=2**(i % 8 + 1), submit=i * 3600.0) for i in range(50)]
        enc = FeatureEncoder()
        X = enc.fit(jobs).transform(jobs)
        assert X.shape == (50, N_FEATURES)
        # transform_one matches row-wise transform
        np.testing.assert_allclose(enc.transform_one(jobs[3]), X[3])

    def test_transform_one_shared_per_fit(self):
        jobs = [job(name=f"a{i}.sh", nodes=2 ** (i % 8 + 1), submit=i * 3600.0) for i in range(50)]
        enc = FeatureEncoder().fit(jobs)
        x = enc.transform_one(jobs[3])
        # a resubmission (new id, same fields) gets the same read-only vector
        j = jobs[3]
        again = Job(99, j.name, j.user, j.n_nodes, 5.0, None, j.submit_time + 86_400.0, cores_per_node=4)
        assert enc.transform_one(again) is x
        assert not x.flags.writeable
        # a refit drops the vectors of the old standardisation
        enc.fit(jobs[:10])
        np.testing.assert_array_equal(enc.transform_one(jobs[3]), enc.transform([jobs[3]])[0])
        assert not np.array_equal(enc.transform_one(jobs[3]), x)

    def test_constant_dims_pass_through(self):
        jobs = [job() for _ in range(5)]  # all identical
        X = FeatureEncoder().fit(jobs).transform(jobs)
        assert np.isfinite(X).all()

    def test_raw_matrix_empty(self):
        assert FeatureEncoder.raw_matrix([]).shape == (0, N_FEATURES)
