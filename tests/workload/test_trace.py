"""Tests for JobTrace."""

from repro.sched.job import Job
from repro.workload import JobTrace, WorkloadConfig, generate_trace


def small_trace(n=50, seed=0):
    return JobTrace(generate_trace(WorkloadConfig(), n, seed=seed), name="t")


class TestJobTrace:
    def test_sorted_on_construction(self):
        j1 = Job(1, "a", "u", 1, 10.0, None, submit_time=100.0)
        j2 = Job(2, "a", "u", 1, 10.0, None, submit_time=50.0)
        tr = JobTrace([j1, j2])
        assert tr[0] is j2

    def test_len_iter_getitem(self):
        tr = small_trace(10)
        assert len(tr) == 10
        assert list(tr)[0] is tr[0]

    def test_window(self):
        tr = small_trace(100)
        t0 = tr[0].submit_time
        mid = tr[50].submit_time
        w = tr.window(t0, mid)
        assert all(t0 <= j.submit_time < mid for j in w)

    def test_head(self):
        assert len(small_trace(20).head(5)) == 5

    def test_span_and_stats(self):
        tr = small_trace(200)
        st = tr.stats()
        assert st["n_jobs"] == 200
        assert st["n_users"] > 1
        assert st["mean_runtime_s"] > 0
        assert 0.0 <= st["overestimate_frac"] <= 1.0

    def test_empty_stats(self):
        assert JobTrace([]).stats() == {"n_jobs": 0}
        assert JobTrace([]).span_s == 0.0
