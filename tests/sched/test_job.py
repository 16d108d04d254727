"""Tests for the job model."""

import pytest

from repro.errors import SchedulingError
from repro.sched import Job, JobState


def make_job(**kw):
    defaults = dict(
        job_id=1,
        name="app.sh",
        user="alice",
        n_nodes=4,
        runtime_s=100.0,
        user_estimate_s=200.0,
        submit_time=0.0,
    )
    defaults.update(kw)
    return Job(**defaults)


class TestValidation:
    def test_zero_nodes_rejected(self):
        with pytest.raises(SchedulingError):
            make_job(n_nodes=0)

    def test_nonpositive_runtime_rejected(self):
        with pytest.raises(SchedulingError):
            make_job(runtime_s=0.0)

    def test_nonpositive_estimate_rejected(self):
        with pytest.raises(SchedulingError):
            make_job(user_estimate_s=-5.0)

    def test_limit_defaults_to_user_estimate(self):
        assert make_job().limit_s == 200.0

    def test_limit_falls_back_to_runtime_without_estimate(self):
        assert make_job(user_estimate_s=None).limit_s == 100.0


class TestLifecycle:
    def test_start_finish(self):
        j = make_job()
        j.start(10.0, nodes=[0, 1, 2, 3])
        assert j.state is JobState.RUNNING
        j.finish(110.0)
        assert j.state is JobState.COMPLETED
        assert j.wait_time == 10.0
        assert j.node_seconds == 4 * 100.0

    def test_start_wrong_node_count(self):
        j = make_job(n_nodes=3)
        with pytest.raises(SchedulingError):
            j.start(0.0, nodes=[1, 2])

    def test_double_start_rejected(self):
        j = make_job()
        j.start(0.0, nodes=[0, 1, 2, 3])
        with pytest.raises(SchedulingError):
            j.start(1.0, nodes=[0, 1, 2, 3])

    def test_finish_requires_running(self):
        with pytest.raises(SchedulingError):
            make_job().finish(1.0)

    def test_finish_requires_terminal_state(self):
        j = make_job()
        j.start(0.0, nodes=[0, 1, 2, 3])
        with pytest.raises(SchedulingError):
            j.finish(1.0, state=JobState.RUNNING)

    def test_cancel_pending(self):
        j = make_job()
        j.cancel(5.0)
        assert j.state is JobState.CANCELLED
        assert j.is_terminal
        with pytest.raises(SchedulingError):
            j.cancel(6.0)

    def test_wait_time_before_start_raises(self):
        with pytest.raises(SchedulingError):
            _ = make_job().wait_time


class TestLimits:
    def test_effective_runtime_truncated_by_limit(self):
        j = make_job(runtime_s=100.0, user_estimate_s=50.0)
        assert j.will_timeout
        assert j.effective_runtime_s == 50.0

    def test_effective_runtime_normal(self):
        j = make_job(runtime_s=100.0, user_estimate_s=150.0)
        assert not j.will_timeout
        assert j.effective_runtime_s == 100.0
