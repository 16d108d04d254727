"""Tests for the ESLURM estimation framework and its metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, EstimationError
from repro.estimate import (
    EslurmEstimator,
    EstimatorConfig,
    estimation_accuracy,
    evaluate_estimator,
)
from repro.sched.job import Job
from repro.workload import WorkloadConfig, generate_trace

HOUR = 3600.0


def quick_config(**kw):
    defaults = dict(window=200, min_history=20, refresh_jobs=40, k_clusters=8)
    defaults.update(kw)
    return EstimatorConfig(**defaults)


def job(job_id, name="a.sh", user="u", runtime=100.0, est=150.0, submit=0.0, nodes=2):
    return Job(job_id, name, user, nodes, runtime, est, submit)


class TestEstimationAccuracy:
    def test_eq4_overestimate(self):
        assert estimation_accuracy(200.0, 100.0) == 0.5

    def test_eq4_underestimate(self):
        assert estimation_accuracy(50.0, 100.0) == 0.5

    def test_exact(self):
        assert estimation_accuracy(100.0, 100.0) == 1.0

    def test_invalid(self):
        with pytest.raises(EstimationError):
            estimation_accuracy(0.0, 10.0)


class TestConfig:
    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            EstimatorConfig(window=5, min_history=30)
        with pytest.raises(ConfigurationError):
            EstimatorConfig(slack=0.9)
        with pytest.raises(ConfigurationError):
            EstimatorConfig(aea_gate=2.0)
        with pytest.raises(ConfigurationError):
            EstimatorConfig(refresh_interval_s=0)
        with pytest.raises(ConfigurationError):
            EstimatorConfig(k_clusters=0)

    # each of these crashed mid-run (or silently misbehaved) when accepted
    @pytest.mark.parametrize(
        "field",
        [
            {"refresh_jobs": 0},
            {"k_max": 0},
            {"min_cluster_size": 0},
            {"q_sigma": -0.5},
            {"resid_floor": -0.1},
            # NaN fails every comparison, so `< bound` checks let it
            # through: a NaN uplift or slack reached job.planned_s and a
            # NaN interval stopped timed retrains
            pytest.param({"slack": float("nan")}, id="slack-nan"),
            pytest.param({"slack": float("inf")}, id="slack-inf"),
            pytest.param({"q_sigma": float("nan")}, id="q_sigma-nan"),
            pytest.param({"q_sigma": float("inf")}, id="q_sigma-inf"),
            pytest.param({"resid_floor": float("nan")}, id="resid_floor-nan"),
            pytest.param({"resid_floor": float("inf")}, id="resid_floor-inf"),
            pytest.param({"refresh_interval_s": float("nan")}, id="refresh_interval_s-nan"),
        ],
        ids=lambda f: next(iter(f)),
    )
    def test_invalid_field_rejected(self, field):
        with pytest.raises(ConfigurationError):
            EstimatorConfig(**field)

    # a NaN or fractional count passed the range checks: window=nan died
    # in deque(maxlen=...), refresh_jobs=nan turned count retraining off
    @pytest.mark.parametrize(
        "field", ["window", "min_history", "k_clusters", "k_max", "min_cluster_size", "refresh_jobs"]
    )
    @pytest.mark.parametrize("value", [float("nan"), 2.5, 40.0, True, "40"])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            EstimatorConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = EstimatorConfig(window=np.int64(700), k_clusters=np.int32(15))
        assert EslurmEstimator(cfg).config.window == 700

    def test_elbow_k_clusters_none_accepted(self):
        assert EstimatorConfig(k_clusters=None).k_clusters is None

    def test_infinite_refresh_interval_accepted(self):
        assert EstimatorConfig(refresh_interval_s=float("inf")).refresh_interval_s == float("inf")

    def test_zero_uplift_accepted(self):
        cfg = EstimatorConfig(q_sigma=0.0, resid_floor=0.0, min_cluster_size=1, k_max=1)
        assert cfg.q_sigma == 0.0 and cfg.k_max == 1


class TestFrameworkLifecycle:
    def test_no_model_passes_user_estimate_through(self):
        est = EslurmEstimator(quick_config())
        j = job(1, est=500.0)
        assert est.estimate(j, now=0.0) == 500.0
        assert not est.trained

    def test_trains_after_min_history(self):
        est = EslurmEstimator(quick_config())
        for i in range(25):
            est.observe(job(i, runtime=100.0), now=float(i))
        est.estimate(job(99), now=30.0)
        assert est.trained
        assert est.trainings == 1

    def test_retrains_on_interval(self):
        cfg = quick_config(refresh_interval_s=10 * HOUR, refresh_jobs=10_000)
        est = EslurmEstimator(cfg)
        for i in range(25):
            est.observe(job(i), now=float(i))
        est.estimate(job(100), now=1.0)
        est.estimate(job(101), now=2.0)
        assert est.trainings == 1
        est.estimate(job(102), now=1.0 + 11 * HOUR)
        assert est.trainings == 2

    def test_retrains_on_job_count(self):
        cfg = quick_config(refresh_jobs=30)
        est = EslurmEstimator(cfg)
        for i in range(25):
            est.observe(job(i), now=float(i))
        est.estimate(job(100), now=26.0)
        for i in range(40):
            est.observe(job(200 + i), now=30.0 + i)
        est.estimate(job(300), now=80.0)
        assert est.trainings == 2

    def test_known_name_gets_model_estimate(self):
        cfg = quick_config(aea_gate=0.0)
        est = EslurmEstimator(cfg)
        for i in range(50):
            est.observe(job(i, name="app.sh", runtime=1000.0), now=float(i))
        pred = est.estimate(job(99, name="app.sh", est=99999.0), now=60.0)
        assert pred is not None
        # model should land near the true 1000 s, far from the user's 99999
        assert 500.0 < pred < 3000.0

    def test_unknown_name_falls_back_to_user(self):
        est = EslurmEstimator(quick_config(aea_gate=0.0))
        for i in range(50):
            est.observe(job(i, name="known.sh", runtime=1000.0), now=float(i))
        est.estimate(job(98, name="known.sh"), now=55.0)  # triggers training
        pred = est.estimate(job(99, name="brand-new.sh", est=777.0), now=60.0)
        assert pred == 777.0

    def test_unknown_name_with_record_memory(self):
        est = EslurmEstimator(quick_config(aea_gate=0.0))
        for i in range(50):
            est.observe(job(i, name="known.sh", runtime=1000.0), now=float(i))
        est.estimate(job(98, name="known.sh"), now=55.0)
        # one completion of the new name: record module memory kicks in
        est.observe(job(60, name="new.sh", runtime=400.0), now=56.0)
        pred = est.estimate(job(99, name="new.sh", est=99999.0), now=60.0)
        assert 300.0 < pred < 800.0

    def test_slack_applied(self):
        cfg = quick_config(aea_gate=0.0, slack=2.0, q_sigma=0.0, resid_floor=0.0)
        est = EslurmEstimator(cfg)
        for i in range(50):
            est.observe(job(i, name="app.sh", runtime=1000.0), now=float(i))
        pred = est.estimate(job(99, name="app.sh", est=None), now=60.0)
        assert pred == pytest.approx(2000.0, rel=0.25)

    def test_aea_gate_blocks_model_when_low(self):
        cfg = quick_config(aea_gate=0.99)  # essentially never trust model
        est = EslurmEstimator(cfg)
        for i in range(60):
            est.observe(job(i, name="app.sh", runtime=1000.0), now=float(i))
        pred = est.estimate(job(99, name="app.sh", est=55_555.0), now=70.0)
        assert pred == 55_555.0

    def test_record_module_updates_aea(self):
        cfg = quick_config(aea_gate=0.0)
        est = EslurmEstimator(cfg)
        for i in range(50):
            est.observe(job(i, name="app.sh", runtime=1000.0), now=float(i))
        j = job(99, name="app.sh")
        est.estimate(j, now=60.0)
        before = est.average_estimation_accuracy()
        est.observe(j, now=61.0)
        after = est.average_estimation_accuracy()
        assert after != before or est._aea_n  # EA recorded

    def test_cluster_aea_unknown_cluster_rejected(self):
        est = EslurmEstimator(quick_config())
        with pytest.raises(EstimationError):
            est.cluster_aea(0)


class TestEndToEnd:
    def test_eslurm_beats_user_estimates(self):
        jobs = generate_trace(WorkloadConfig.tianhe2a(max_nodes=256), 1200, seed=3)
        from repro.estimate import UserEstimator

        user_rep = evaluate_estimator(UserEstimator(), jobs, warmup=100)
        cfg = EstimatorConfig(aea_gate=0.0, k_clusters=40)
        es_rep = evaluate_estimator(EslurmEstimator(cfg), jobs, warmup=100)
        assert es_rep.aea > user_rep.aea
        assert es_rep.underestimate_rate < 0.5

    def test_deterministic(self):
        jobs = generate_trace(WorkloadConfig(max_nodes=64), 600, seed=4)
        reps = [
            evaluate_estimator(
                EslurmEstimator(EstimatorConfig(aea_gate=0.0), rng=np.random.default_rng(1)),
                jobs,
                warmup=50,
            )
            for _ in range(2)
        ]
        assert reps[0].aea == reps[1].aea


class TestClusterFitsOnFirstQuery:
    """A generation fits a cluster's SVR when the first job is routed to
    it, once, and never for a cluster no job asks."""

    @pytest.fixture
    def fits(self, monkeypatch):
        from repro.estimate.svr import SVR

        sizes = []
        fit = SVR.fit

        def counting(svr, X, y):
            sizes.append(len(y))
            return fit(svr, X, y)

        monkeypatch.setattr(SVR, "fit", counting)
        return sizes

    N_NAMES = 6

    def history(self, min_cluster_size=3):
        est = EslurmEstimator(
            EstimatorConfig(
                window=100, min_history=20, refresh_jobs=1_000,
                refresh_interval_s=float("inf"), k_clusters=3,
                min_cluster_size=min_cluster_size,
            ),
            rng=np.random.default_rng(0),
        )
        for i in range(8 * self.N_NAMES):
            name = i % self.N_NAMES
            runtime = 100.0 * 4**name * (1 + 0.1 * (i % 5))
            est.observe(job(i, f"app{name}.sh", runtime=runtime, submit=60.0 * i, nodes=1 + i % 3), 60.0 * i)
        return est

    def query(self, est, job_id, name, nodes=2):
        return est.estimate(job(job_id, name, est=None, submit=3_000.0, nodes=nodes), 3_000.0)

    def test_many_queries_of_one_cluster_fit_it_once(self, fits):
        est = self.history()
        self.query(est, 100, "app0.sh")
        assert est.trainings == 1 and len(fits) == 1
        model = est._models[est._name_route["app0.sh"]]
        assert model.svr is not None and model.rows is None
        # other hours and sizes of the name: new answers, the same model
        for k, nodes in enumerate((1, 3, 5, 7, 9)):
            self.query(est, 101 + k, "app0.sh", nodes=nodes)
        assert len(est._answers) == 6 and len(fits) == 1
        assert est._models[est._name_route["app0.sh"]] is model

    def test_unqueried_clusters_are_never_fitted(self, fits):
        est = self.history()
        self.query(est, 100, "app0.sh")
        asked = est._name_route["app0.sh"]
        waiting = [c for c, m in enumerate(est._models) if m.rows is not None]
        assert waiting and asked not in waiting
        assert all(est._models[c].svr is None for c in waiting)
        assert len(fits) == 1
        # asking every name fits each trainable cluster once, no more
        for k in range(self.N_NAMES):
            self.query(est, 200 + k, f"app{k}.sh")
        routed = {est._name_route[f"app{k}.sh"] for k in range(self.N_NAMES)}
        trainable = {c for c in routed if est._models[c].svr is not None}
        assert len(fits) == len(trainable) == len(waiting) + 1
        assert all(est._models[c].rows is None for c in routed)

    def test_small_clusters_never_fit_and_keep_their_spread(self, fits):
        est = self.history(min_cluster_size=100)
        for k in range(self.N_NAMES):
            self.query(est, 100 + k, f"app{k}.sh")
        assert fits == []
        y = np.log1p([j.runtime_s for j in est._history])
        labels = est._kmeans.labels_
        for c, model in enumerate(est._models):
            members = y[labels == c]
            assert model.svr is None and model.rows is None
            assert model.resid_std == (float(np.std(members)) if len(members) > 1 else 0.0)

    def test_retrain_starts_a_fresh_generation(self, fits):
        est = self.history()
        self.query(est, 100, "app0.sh")
        first = est._models
        est._retrain(4_000.0)
        assert est.trainings == 2 and len(fits) == 1
        assert est._models is not first
        assert all(m.svr is None for m in est._models)
        self.query(est, 101, "app0.sh")
        assert len(fits) == 2
        assert est._models[est._name_route["app0.sh"]].svr is not None
