"""The ESLURM estimator's answers, pinned.

Table VIII's configuration (150 clusters, no AEA gate, slack 1.05, rng
seed 3) replays a 1,200-job NG-Tianhe trace (seed 3, 200 warm-up jobs)
through ``evaluate_estimator``.  The SHA-256 of every submission's
``(job_id, estimate, model_estimate_s)`` and the replay's
``EstimatorReport`` are pinned exactly: a speed change to
``repro.estimate`` must keep both, and a change that moves any answer
(residual scale, clamp margin, uplift, routing) fails here even when the
end-to-end digests do not see it.
"""

import hashlib

import numpy as np

from repro.estimate import EslurmEstimator, EstimatorConfig
from repro.estimate.metrics import evaluate_estimator
from repro.workload.synthetic import WorkloadConfig, generate_trace

STREAM_SHA256 = "cfa7d8bfec08229c414ee901ef8501809716aef755e2d36902f76c75830d9719"


class Recording:
    """Forwards to an estimator and records every submission's answer."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.stream = []

    def estimate(self, job, now):
        value = self.inner.estimate(job, now)
        model = job.model_estimate_s
        self.stream.append((
            job.job_id,
            None if value is None else float(value),
            None if model is None else float(model),
        ))
        return value

    def observe(self, job, now):
        self.inner.observe(job, now)


def test_table8_config_answers_pinned():
    jobs = generate_trace(WorkloadConfig.ng_tianhe(jobs_per_day=1000.0), 1_200, seed=3)
    estimator = EslurmEstimator(
        EstimatorConfig(aea_gate=0.0, k_clusters=150, slack=1.05),
        rng=np.random.default_rng(3),
    )
    recording = Recording(estimator)
    report = evaluate_estimator(recording, jobs, warmup=200)
    assert len(recording.stream) == 1_200
    assert hashlib.sha256(repr(recording.stream).encode()).hexdigest() == STREAM_SHA256
    assert (report.name, report.n_jobs, report.n_estimated) == ("eslurm", 1_200, 1_000)
    assert (report.aea, report.underestimate_rate, report.mean_abs_error_s) == (
        0.744033127792271, 0.288, 11180.990101642821,
    )
    assert estimator.trainings == 15
