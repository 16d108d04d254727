"""``EslurmEstimator.estimate`` against a memo-free twin of its former body.

Within one model generation a routed job's (cluster, pre-slack estimate)
is a pure function of its ``feature_key``, so ``estimate`` answers a
repeated key from ``_answers``.  The twin recomputes every answer.  Over
job streams that cross retrains (by job count and by interval), repeat
keys, vary only the hour or the size of a name, mix in names the model
has not seen (with and without per-name EWMA memory) and move clusters'
AEA across the gate, both must agree with ``==`` on every return value,
``model_estimate_s``, ``_pending``, the AEA record, ``trainings`` and the
estimator's ``rng`` state.  The twin also fits every cluster at retrain,
as the estimator did before its fits moved to each cluster's first query.
"""

import itertools
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimate import EslurmEstimator, EstimatorConfig
from repro.estimate.features import feature_key
from repro.sched.job import Job

HOUR = 3600.0
NAMES = ("a.sh", "b.sh", "c.sh", "d.sh", "e.sh")
USERS = ("u0", "u1")
NODES = (1, 8)
CORES = (1, 4)
SUBMIT_HOURS = (0, 13, 22)


class MemoFreeEstimator(EslurmEstimator):
    """The estimator with ``estimate``'s body as it was before the memo,
    and every cluster's SVR fitted as soon as its generation is built."""

    def _retrain(self, now):
        super()._retrain(now)
        for model in self._models:
            model.fitted_svr()

    def estimate(self, job, now):
        if self._should_retrain(now):
            self._retrain(now)
        if self._kmeans is None or self._encoder is None:
            return job.user_estimate_s
        x = self._encoder.transform_one(job)
        routed = self._name_route.get(job.name)
        if routed is None:
            ewma = self._name_ewma.get(job.name)
            if ewma is not None:
                raw = ewma * float(np.exp(self.config.q_sigma * self.config.resid_floor))
                self._pending[job.job_id] = (-1, raw)
                job.model_estimate_s = raw
                return raw * self.config.slack
            if job.user_estimate_s is not None:
                return job.user_estimate_s
            return float(np.mean([j.runtime_s for j in self._history])) * self.config.slack
        cluster = routed if routed < len(self._models) else self._kmeans.predict_one(x)
        model = self._models[cluster]
        uplift = self.config.q_sigma * max(model.resid_std, self.config.resid_floor)
        if model.svr is not None:
            log_pred = model.svr.predict_one(x)
            log_pred = min(max(log_pred, model.y_lo - 0.5), model.y_hi + 0.5)
            raw = float(np.expm1(log_pred + uplift))
        else:
            raw = model.fallback_s * float(np.exp(uplift))
        raw = max(raw, 1.0)
        self._pending[job.job_id] = (cluster, raw)
        job.model_estimate_s = raw
        slacked = raw * self.config.slack
        if job.user_estimate_s is None:
            return slacked
        return slacked if self.cluster_aea(cluster) > self.config.aea_gate else job.user_estimate_s


def make_job(job_id, name, user, nodes, cores, hour, day, runtime, user_est):
    return Job(
        job_id, NAMES[name], USERS[user], NODES[nodes], runtime, user_est,
        day * 86_400.0 + SUBMIT_HOURS[hour] * HOUR, cores_per_node=CORES[cores],
    )


def run_twin(config, ops, seed=0):
    """Drive both estimators through ``ops``; assert agreement after every
    step and return the memoized estimator and how often each path of
    ``estimate`` ran."""
    memo = EslurmEstimator(config, rng=np.random.default_rng(seed))
    twin = MemoFreeEstimator(config, rng=np.random.default_rng(seed))
    paths: Counter = Counter()
    gate_outcomes: dict[tuple, set] = {}
    submitted: list[tuple[Job, Job]] = []
    now = 0.0
    for job_id, (kind, complete, *shape, runtime, user_est, dt) in enumerate(ops):
        now += dt
        fields = (job_id, *shape, job_id % 3, runtime, user_est)
        if kind == "observe":
            if complete and submitted:
                a, b = submitted.pop(0)
            else:
                a, b = make_job(*fields), make_job(*fields)
            memo.observe(a, now)
            twin.observe(b, now)
        else:
            a, b = make_job(*fields), make_job(*fields)
            trainings, since = memo.trainings, memo._jobs_since_train
            key = feature_key(a)
            cached = key in memo._answers
            got = memo.estimate(a, now)
            want = twin.estimate(b, now)
            assert got == want
            assert a.model_estimate_s == b.model_estimate_s
            if memo.trainings > trainings:
                paths["retrain-by-jobs" if since >= config.refresh_jobs else "retrain-by-time"] += 1
            elif cached:
                paths["memo-hit"] += 1
            if memo.trained and a.name not in memo._name_route:
                paths["unknown-ewma" if a.job_id in memo._pending else "unknown-no-memory"] += 1
            if user_est is None:
                paths["no-user-estimate"] += 1
            elif a.job_id in memo._pending and memo._pending[a.job_id][0] >= 0:
                gate = "user" if got == user_est else "model"
                gate_outcomes.setdefault((memo.trainings, key), set()).add(gate)
            submitted.append((a, b))
        assert memo._pending == twin._pending
        assert memo.trainings == twin.trainings
    assert memo._aea_sum == twin._aea_sum and memo._aea_n == twin._aea_n
    assert [memo.cluster_aea(c) for c in range(len(memo._aea_n))] == [
        twin.cluster_aea(c) for c in range(len(twin._aea_n))
    ]
    assert memo.rng.bit_generator.state == twin.rng.bit_generator.state
    paths["gate-flip"] = sum(len(o) == 2 for o in gate_outcomes.values())
    return memo, paths


configs = st.builds(
    EstimatorConfig,
    window=st.integers(10, 30),
    min_history=st.just(10),
    refresh_jobs=st.integers(5, 30),
    refresh_interval_s=st.sampled_from([4 * HOUR, 12 * HOUR, float("inf")]),
    k_clusters=st.sampled_from([1, 3, None]),
    k_max=st.just(3),
    min_cluster_size=st.sampled_from([1, 3, 6]),
    slack=st.sampled_from([1.0, 1.05, 1.5]),
    aea_gate=st.sampled_from([0.0, 0.5, 0.7, 0.9]),
    q_sigma=st.sampled_from([0.0, 1.0]),
    resid_floor=st.sampled_from([0.0, 0.1]),
)

#: (kind, complete a submitted job?, name, user, nodes, cores, hour,
#: runtime, user estimate, clock step); skewed toward the first name,
#: user, size and hour, so keys repeat
op = st.tuples(
    st.sampled_from(["observe", "observe", "estimate"]),
    st.booleans(),
    st.sampled_from([0, 0, 0, 1, 1, 2, 3, 4]),
    st.sampled_from([0, 0, 0, 1]),
    st.sampled_from([0, 0, 1]),
    st.sampled_from([0, 0, 1]),
    st.sampled_from([0, 0, 1, 2]),
    st.floats(10.0, 10_000.0),
    st.none() | st.floats(10.0, 20_000.0),
    st.sampled_from([0.0, 60.0, 60.0, 600.0, HOUR, 3 * HOUR]),
)


@given(configs, st.lists(op, min_size=50, max_size=150), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_memo_matches_memo_free_twin(config, ops, seed):
    run_twin(config, ops, seed)


def test_fixed_stream_covers_every_path():
    """One seeded stream reaches every path the memo must keep apart;
    names 3 and 4 first appear after the first trainings."""
    rng = np.random.default_rng(0)
    base = rng.uniform(50.0, 5_000.0, len(NAMES))
    ops = []
    for i in range(400):
        name = int(rng.integers(3 if i < 150 else 5))
        ops.append((
            "estimate" if rng.random() < 0.4 else "observe",
            bool(rng.random() < 0.5),
            name,
            int(rng.random() < 0.1),
            int(rng.integers(2)),
            int(rng.random() < 0.2),
            int(rng.integers(2)),
            float(base[name] * rng.lognormal(0.0, 0.8)),
            None if rng.random() < 0.3 else float(rng.uniform(10.0, 20_000.0)),
            3 * HOUR if rng.random() < 0.03 else 60.0,
        ))
    config = EstimatorConfig(
        window=20, min_history=10, refresh_jobs=25, refresh_interval_s=4 * HOUR,
        k_clusters=3, aea_gate=0.6,
    )
    _, paths = run_twin(config, ops)
    for path in (
        "retrain-by-jobs", "retrain-by-time", "memo-hit", "unknown-ewma",
        "unknown-no-memory", "no-user-estimate", "gate-flip",
    ):
        assert paths[path] > 0, (path, paths)


def test_same_name_other_hour_or_size_is_its_own_answer():
    """Jobs that share name and user but differ only in hour, node count
    or cores get their own model answers, each equal to the twin's."""
    config = EstimatorConfig(window=60, min_history=10, refresh_jobs=1_000, k_clusters=1)
    shapes = list(itertools.product(range(len(NODES)), range(len(CORES)), range(len(SUBMIT_HOURS))))
    ops = [
        ("observe", False, 0, 0, *shape, 100.0 * (1 + shape[0] + 2 * shape[1]) * (1 + shape[2]), None, 60.0)
        for shape in shapes * 4
    ]
    ops += [("estimate", False, 0, 0, *shape, 100.0, None, 0.0) for shape in shapes * 2]
    memo, paths = run_twin(config, ops)
    assert paths["memo-hit"] == len(shapes)  # the second pass only
    assert len(set(memo._answers.values())) == len(shapes)


def test_unknown_name_follows_its_ewma_between_estimates():
    """A name the generation has not seen is answered from its runtime
    EWMA each time: a completion between two equal-key estimates moves
    the second answer."""
    config = EstimatorConfig(window=20, min_history=10, refresh_jobs=1_000, k_clusters=1)
    ops = [("observe", False, 0, 0, 0, 0, 0, 100.0 * (1 + i), None, 60.0) for i in range(10)]
    ops += [
        ("estimate", False, 0, 0, 0, 0, 0, 100.0, None, 60.0),  # trains on a.sh only
        ("observe", False, 1, 0, 0, 0, 0, 500.0, None, 60.0),
        ("estimate", False, 1, 0, 0, 0, 0, 100.0, 300.0, 60.0),
        ("observe", False, 1, 0, 0, 0, 0, 2_000.0, None, 60.0),
        ("estimate", False, 1, 0, 0, 0, 0, 100.0, 300.0, 60.0),
    ]
    memo, paths = run_twin(config, ops)
    assert paths["unknown-ewma"] == 2
    assert len({raw for cluster, raw in memo._pending.values() if cluster == -1}) == 2
