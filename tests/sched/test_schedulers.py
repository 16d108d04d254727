"""Tests for FCFS and EASY-backfill policies."""

import pytest

from repro.errors import SchedulingError
from repro.sched import BackfillScheduler, FcfsScheduler, Job, JobQueue, NodePool


def make_job(job_id, n_nodes, runtime=100.0, estimate=None, submit=0.0):
    return Job(
        job_id=job_id,
        name=f"job{job_id}",
        user="u",
        n_nodes=n_nodes,
        runtime_s=runtime,
        user_estimate_s=estimate if estimate is not None else runtime,
        submit_time=submit,
    )


def queued(*jobs):
    q = JobQueue()
    for j in jobs:
        q.submit(j)
    return q


class TestJobQueue:
    def test_fifo_and_membership(self):
        a, b = make_job(1, 1), make_job(2, 1)
        q = queued(a, b)
        assert q.head() is a
        assert a in q and b in q
        q.remove(a)
        assert q.head() is b
        assert len(q) == 1

    def test_double_submit_rejected(self):
        a = make_job(1, 1)
        q = queued(a)
        with pytest.raises(SchedulingError):
            q.submit(a)

    def test_remove_missing_rejected(self):
        q = JobQueue()
        with pytest.raises(SchedulingError):
            q.remove(make_job(1, 1))

    def test_non_pending_rejected(self):
        j = make_job(1, 1)
        j.cancel(0.0)
        with pytest.raises(SchedulingError):
            JobQueue().submit(j)

    def test_remove_deep_keeps_order_and_bookkeeping(self):
        jobs = [make_job(i, i) for i in range(1, 11)]
        q = queued(*jobs)
        q.remove(jobs[6])
        assert list(q) == jobs[:6] + jobs[7:]
        assert len(q) == 9
        assert jobs[6] not in q and all(j in q for j in jobs if j is not jobs[6])
        assert q.demand_nodes == sum(range(1, 11)) - 7

    def test_remove_equal_copy_removes_queued_job(self):
        a, b, c = make_job(1, 2), make_job(2, 3), make_job(3, 4)
        q = queued(a, b, c)
        copy = make_job(2, 3)
        assert copy == b and copy is not b
        q.remove(copy)
        assert list(q) == [a, c]
        assert q._ids == {j.job_id for j in q._jobs} == {1, 3}
        assert q.demand_nodes == 6

    def test_remove_missing_id_among_queued_rejected(self):
        a, b = make_job(1, 1), make_job(2, 1)
        q = queued(a, b)
        q.remove(b)
        with pytest.raises(SchedulingError):
            q.remove(b)
        with pytest.raises(SchedulingError):
            q.remove(make_job(3, 1))
        assert list(q) == [a] and q.demand_nodes == 1


class TestFcfs:
    def test_starts_in_order_while_fitting(self):
        pool = NodePool(range(10))
        q = queued(make_job(1, 4), make_job(2, 4), make_job(3, 4))
        started = FcfsScheduler().plan(q, pool, now=0.0)
        assert [j.job_id for j, _ in started] == [1, 2]
        assert q.head().job_id == 3
        assert pool.n_free == 2

    def test_head_blocks_queue(self):
        pool = NodePool(range(10))
        q = queued(make_job(1, 20), make_job(2, 1))
        started = FcfsScheduler().plan(q, pool, now=0.0)
        assert started == []  # head too big; FCFS never skips
        assert len(q) == 2

    def test_empty_queue(self):
        assert FcfsScheduler().plan(JobQueue(), NodePool(range(4)), 0.0) == []

    def test_started_jobs_leave_queue_bookkeeping(self):
        jobs = [make_job(1, 3), make_job(2, 3), make_job(3, 5), make_job(4, 1)]
        q = queued(*jobs)
        started = FcfsScheduler().plan(q, NodePool(range(8)), now=0.0)
        assert [j for j, _ in started] == jobs[:2]
        assert list(q) == jobs[2:] and len(q) == 2
        assert jobs[0] not in q and jobs[1] not in q
        assert q.demand_nodes == 6


class TestBackfill:
    def test_backfills_short_job_before_shadow(self):
        pool = NodePool(range(10))
        running = make_job(0, 6, estimate=100.0)
        pool.allocate(running, now=0.0)  # believed end t=100
        # head wants 8 nodes -> shadow at t=100; 4 free now
        head = make_job(1, 8, estimate=50.0)
        shorty = make_job(2, 4, estimate=50.0)  # finishes t=50 < shadow
        q = queued(head, shorty)
        started = BackfillScheduler().plan(q, pool, now=0.0)
        assert [j.job_id for j, _ in started] == [2]
        assert q.head() is head

    def test_does_not_backfill_job_delaying_head(self):
        pool = NodePool(range(10))
        running = make_job(0, 6, estimate=100.0)
        pool.allocate(running, now=0.0)
        head = make_job(1, 8)
        # long job would hold 4 nodes past the shadow (t=100) and the
        # head needs 8 of the 10 -> only 2 extra nodes at shadow
        long_job = make_job(2, 4, estimate=500.0)
        q = queued(head, long_job)
        started = BackfillScheduler().plan(q, pool, now=0.0)
        assert started == []

    def test_backfills_on_extra_nodes_even_if_long(self):
        pool = NodePool(range(10))
        running = make_job(0, 6, estimate=100.0)
        pool.allocate(running, now=0.0)
        head = make_job(1, 7)  # at shadow: 10 free, 3 extra
        long_small = make_job(2, 2, estimate=9999.0)  # fits in extra nodes
        q = queued(head, long_small)
        started = BackfillScheduler().plan(q, pool, now=0.0)
        assert [j.job_id for j, _ in started] == [2]

    def test_extra_nodes_budget_decrements(self):
        pool = NodePool(range(10))
        running = make_job(0, 6, estimate=100.0)
        pool.allocate(running, now=0.0)
        head = make_job(1, 7)  # 3 extra nodes at shadow
        a = make_job(2, 2, estimate=9999.0)
        b = make_job(3, 2, estimate=9999.0)  # only 1 extra left: no
        q = queued(head, a, b)
        started = BackfillScheduler().plan(q, pool, now=0.0)
        assert [j.job_id for j, _ in started] == [2]

    def test_plain_fcfs_phase_first(self):
        pool = NodePool(range(10))
        q = queued(make_job(1, 3), make_job(2, 3))
        started = BackfillScheduler().plan(q, pool, now=0.0)
        assert [j.job_id for j, _ in started] == [1, 2]

    def test_unsatisfiable_head_does_not_starve_queue(self):
        pool = NodePool(range(10))
        q = queued(make_job(1, 50), make_job(2, 2, estimate=1e6))
        started = BackfillScheduler().plan(q, pool, now=0.0)
        assert [j.job_id for j, _ in started] == [2]

    def test_depth_limit_respected(self):
        pool = NodePool(range(10))
        running = make_job(0, 6, estimate=100.0)
        pool.allocate(running, now=0.0)
        head = make_job(1, 8)
        backfillables = [make_job(i, 1, estimate=10.0) for i in range(2, 8)]
        q = queued(head, *backfillables)
        started = BackfillScheduler(max_backfill_depth=2).plan(q, pool, now=0.0)
        assert len(started) == 2

    def test_backfill_improves_utilization_over_fcfs(self):
        def run(policy):
            pool = NodePool(range(10))
            running = make_job(0, 6, estimate=100.0)
            pool.allocate(running, now=0.0)
            q = queued(make_job(1, 8), make_job(2, 2, estimate=50.0))
            return len(policy.plan(q, pool, now=0.0))

        assert run(BackfillScheduler()) > run(FcfsScheduler())


class TestSpareNodeAccounting:
    """Regression tests for EASY spare-node double-counting.

    A job admitted because it is *planned* to finish before the shadow
    time may still hold its nodes up to the kill limit.  If that limit
    reaches past the shadow, the spares it sits on are spoken for and
    must come out of the ``extra_nodes`` budget — otherwise a later
    long job re-consumes the same spares and the two encroach on the
    head's reservation together.
    """

    def test_two_jobs_racing_for_same_spares(self):
        pool = NodePool(range(20))
        running = make_job(0, 10, estimate=100.0)
        pool.allocate(running, now=0.0)  # believed end t=100
        head = make_job(1, 16)  # shadow t=100, extra = 20 - 16 = 4
        # Planned to finish at t=50 (before the shadow) but its kill
        # limit reaches t=500: it may hold 4 spares past the shadow.
        optimist = Job(
            job_id=2,
            name="optimist",
            user="u",
            n_nodes=4,
            runtime_s=400.0,
            user_estimate_s=500.0,
            submit_time=0.0,
            planned_s=50.0,
        )
        # Openly long; only admissible via the spare-node budget.
        long_job = make_job(3, 4, estimate=9999.0)
        q = queued(head, optimist, long_job)
        started = BackfillScheduler().plan(q, pool, now=0.0)
        # Before the fix both backfilled (8 spare nodes consumed out of
        # a budget of 4); now the optimist's limit burns the budget.
        assert [j.job_id for j, _ in started] == [2]

    def test_limit_within_shadow_leaves_budget_intact(self):
        pool = NodePool(range(20))
        running = make_job(0, 10, estimate=100.0)
        pool.allocate(running, now=0.0)
        head = make_job(1, 16)  # extra = 4
        # Kill limit t=50 < shadow t=100: provably returns its spares.
        quick = make_job(2, 4, estimate=50.0)
        long_job = make_job(3, 4, estimate=9999.0)
        q = queued(head, quick, long_job)
        started = BackfillScheduler().plan(q, pool, now=0.0)
        assert [j.job_id for j, _ in started] == [2, 3]


class TestReservationEdgeCases:
    def test_unsatisfiable_head_yields_infinite_shadow(self):
        pool = NodePool(range(10))
        head = make_job(1, 50)  # larger than the whole machine
        shadow, extra = BackfillScheduler()._reservation(head, pool, now=0.0)
        assert shadow == float("inf")
        assert extra == 0

    def test_unsatisfiable_after_down_nodes(self):
        pool = NodePool(range(10))
        for nid in range(4):
            pool.mark_down(nid)
        head = make_job(1, 8)  # only 6 serviceable nodes remain
        shadow, extra = BackfillScheduler()._reservation(head, pool, now=0.0)
        assert shadow == float("inf")
        assert extra == 0

    def test_head_fits_exactly_at_last_believed_end(self):
        pool = NodePool(range(10))
        a = make_job(0, 4, estimate=50.0)
        b = make_job(1, 6, estimate=100.0)
        pool.allocate(a, now=0.0)
        pool.allocate(b, now=0.0)
        head = make_job(2, 10)  # needs every node; free only after b
        shadow, extra = BackfillScheduler()._reservation(head, pool, now=0.0)
        assert shadow == 100.0
        assert extra == 0

    def test_zero_free_pool(self):
        pool = NodePool(range(4))
        running = make_job(0, 4, estimate=100.0)
        pool.allocate(running, now=0.0)
        head = make_job(1, 2)
        shadow, extra = BackfillScheduler()._reservation(head, pool, now=0.0)
        assert shadow == 100.0
        assert extra == 2

    def test_zero_free_pool_plan_does_not_crash(self):
        pool = NodePool(range(4))
        running = make_job(0, 4, estimate=100.0)
        pool.allocate(running, now=0.0)
        q = queued(make_job(1, 2), make_job(2, 1, estimate=10.0))
        assert BackfillScheduler().plan(q, pool, now=0.0) == []

    def test_empty_pool(self):
        pool = NodePool([])
        head = make_job(1, 1)
        shadow, extra = BackfillScheduler()._reservation(head, pool, now=0.0)
        assert shadow == float("inf")
        assert extra == 0
