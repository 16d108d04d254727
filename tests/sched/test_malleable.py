"""Malleability protocol: job resize lifecycle, pool ops, elastic planning."""

import pytest

from repro.errors import SchedulingError
from repro.sched import BackfillScheduler, Job, JobQueue, NodePool


def make_job(job_id, n_nodes, runtime=100.0, estimate=None, submit=0.0,
             min_nodes=0, max_nodes=0):
    return Job(
        job_id=job_id,
        name=f"job{job_id}",
        user="u",
        n_nodes=n_nodes,
        runtime_s=runtime,
        user_estimate_s=estimate if estimate is not None else runtime,
        submit_time=submit,
        min_nodes=min_nodes,
        max_nodes=max_nodes,
    )


def elastic(job_id, n_nodes, min_nodes, max_nodes, runtime=100.0, estimate=None):
    return make_job(job_id, n_nodes, runtime=runtime, estimate=estimate,
                    min_nodes=min_nodes, max_nodes=max_nodes)


def queued(*jobs):
    q = JobQueue()
    for j in jobs:
        q.submit(j)
    return q


class TestJobMalleability:
    def test_rigid_by_default(self):
        j = make_job(1, 4)
        assert not j.malleable
        assert (j.min_nodes, j.max_nodes) == (4, 4)

    def test_declared_range_resolves(self):
        j = elastic(1, 4, 2, 8)
        assert j.malleable
        assert (j.n_nodes, len(j.allocated_nodes)) == (4, 0)  # pre-start: the requested width

    def test_invalid_range_rejected(self):
        with pytest.raises(SchedulingError):
            elastic(1, 4, 5, 8)  # min > n_nodes
        with pytest.raises(SchedulingError):
            elastic(1, 4, 2, 3)  # max < n_nodes

    def test_start_accepts_any_width_in_range(self):
        j = elastic(1, 4, 2, 8)
        j.start(0.0, (0, 1))
        assert len(j.allocated_nodes) == 2

    def test_start_outside_range_rejected(self):
        j = elastic(1, 4, 2, 8)
        with pytest.raises(SchedulingError):
            j.start(0.0, (0,))

    def test_rigid_start_requires_exact_width(self):
        j = make_job(1, 4)
        with pytest.raises(SchedulingError):
            j.start(0.0, (0, 1))

    def test_grow_and_shrink_update_width(self):
        j = elastic(1, 4, 2, 8)
        j.start(0.0, (0, 1, 2, 3))
        j.grow(10.0, (4, 5))
        assert len(j.allocated_nodes) == 6
        j.shrink(20.0, (0, 5))
        assert set(j.allocated_nodes) == {1, 2, 3, 4}
        assert j.resize_count == 2

    def test_grow_past_max_rejected(self):
        j = elastic(1, 4, 2, 5)
        j.start(0.0, (0, 1, 2, 3))
        with pytest.raises(SchedulingError):
            j.grow(1.0, (4, 5))

    def test_shrink_below_min_rejected(self):
        j = elastic(1, 4, 3, 8)
        j.start(0.0, (0, 1, 2, 3))
        with pytest.raises(SchedulingError):
            j.shrink(1.0, (0, 1))

    def test_rigid_job_cannot_resize(self):
        j = make_job(1, 4)
        j.start(0.0, (0, 1, 2, 3))
        with pytest.raises(SchedulingError):
            j.grow(1.0, (4,))

    def test_node_seconds_integrates_widths(self):
        # 10 s at width 4, then 10 s at width 6: 40 + 60 node-seconds.
        j = elastic(1, 4, 2, 8, runtime=1000.0)
        j.start(0.0, (0, 1, 2, 3))
        j.grow(10.0, (4, 5))
        j.finish(20.0)
        assert j.node_seconds == pytest.approx(100.0)

    def test_rigid_node_seconds_closed_form(self):
        j = make_job(1, 4)
        j.start(0.0, (0, 1, 2, 3))
        j.finish(25.0)
        assert j.node_seconds == pytest.approx(100.0)


class TestPoolResizeOps:
    def test_grow_allocation_takes_free_nodes(self):
        pool = NodePool(range(8))
        j = elastic(1, 4, 2, 8)
        pool.allocate(j, now=0.0)
        added = pool.grow_allocation(1, 2)
        assert len(added) == 2
        assert pool.n_free == 2
        assert len(pool.running[1].node_ids) == 6

    def test_shrink_allocation_returns_nodes(self):
        pool = NodePool(range(8))
        j = elastic(1, 4, 2, 8)
        nodes = pool.allocate(j, now=0.0)
        pool.shrink_allocation(1, nodes[-2:])
        assert pool.n_free == 6
        assert len(pool.running[1].node_ids) == 2

    def test_shrink_keeps_down_nodes_out_of_free(self):
        pool = NodePool(range(8))
        j = elastic(1, 4, 2, 8)
        nodes = pool.allocate(j, now=0.0)
        pool.mark_down(nodes[0])
        pool.shrink_allocation(1, (nodes[0],))
        assert nodes[0] not in pool.free_ids()
        pool.mark_up(nodes[0])
        assert nodes[0] in pool.free_ids()

    def test_retime_updates_believed_end(self):
        pool = NodePool(range(8))
        j = elastic(1, 4, 2, 8, estimate=100.0)
        pool.allocate(j, now=0.0)
        pool.retime(1, 250.0)
        assert pool.believed_ends() == [(250.0, 4)]

    def test_resize_unknown_job_rejected(self):
        pool = NodePool(range(8))
        with pytest.raises(SchedulingError):
            pool.grow_allocation(9, 1)
        with pytest.raises(SchedulingError):
            pool.retime(9, 1.0)


class TestShrunkStarts:
    def test_blocked_elastic_head_starts_shrunk(self):
        pool = NodePool(range(10))
        running = make_job(0, 6, estimate=100.0)
        pool.allocate(running, now=0.0)
        head = elastic(1, 8, 2, 8, estimate=100.0)
        q = queued(head)
        started = BackfillScheduler(malleable=True).plan(q, pool, now=0.0)
        assert [j.job_id for j, _ in started] == [1]
        assert len(started[0][1]) == 4  # every free node, not the full 8
        # Work conservation stretches the believed wall clock: 100 * 8/4.
        assert pool.running[1].believed_end == pytest.approx(200.0)

    def test_rigid_mode_never_starts_shrunk(self):
        pool = NodePool(range(10))
        pool.allocate(make_job(0, 6, estimate=100.0), now=0.0)
        q = queued(elastic(1, 8, 2, 8))
        assert BackfillScheduler(malleable=False).plan(q, pool, now=0.0) == []

    def test_head_below_min_width_stays_queued(self):
        pool = NodePool(range(10))
        pool.allocate(make_job(0, 8, estimate=100.0), now=0.0)
        q = queued(elastic(1, 8, 4, 8))  # only 2 free < min 4
        assert BackfillScheduler(malleable=True).plan(q, pool, now=0.0) == []


class TestPlanResizes:
    def test_contraction_admits_blocked_head(self):
        pool = NodePool(range(10))
        donor = elastic(1, 8, 2, 10, estimate=100.0)
        pool.allocate(donor, now=0.0)
        donor.start(0.0, pool.running[1].node_ids)
        head = make_job(2, 6)
        q = queued(head)
        sched = BackfillScheduler(malleable=True)
        decisions = sched.plan_resizes(q, pool, now=0.0)
        assert len(decisions) == 1
        assert len(decisions[0].removed) == 4  # deficit: 6 needed - 2 free
        # Donors give their highest ids first.
        assert decisions[0].removed == (4, 5, 6, 7)
        assert pool.n_free == 6

    def test_no_partial_contraction(self):
        pool = NodePool(range(10))
        donor = elastic(1, 8, 6, 10, estimate=100.0)  # can give only 2
        pool.allocate(donor, now=0.0)
        donor.start(0.0, pool.running[1].node_ids)
        q = queued(make_job(2, 6))  # deficit 4 > capacity 2
        sched = BackfillScheduler(malleable=True)
        assert sched.plan_resizes(q, pool, now=0.0) == []
        assert len(pool.running[1].node_ids) == 8  # untouched

    def test_growth_fills_idle_machine(self):
        pool = NodePool(range(10))
        grower = elastic(1, 4, 2, 10, estimate=100.0)
        pool.allocate(grower, now=0.0)
        grower.start(0.0, pool.running[1].node_ids)
        sched = BackfillScheduler(malleable=True)
        decisions = sched.plan_resizes(JobQueue(), pool, now=0.0)
        assert len(decisions) == 1
        assert len(decisions[0].added) == 6  # all the way to max_nodes
        assert pool.n_free == 0

    def test_rigid_mode_plans_nothing(self):
        pool = NodePool(range(10))
        grower = elastic(1, 4, 2, 10, estimate=100.0)
        pool.allocate(grower, now=0.0)
        grower.start(0.0, pool.running[1].node_ids)
        assert BackfillScheduler(malleable=False).plan_resizes(
            JobQueue(), pool, now=0.0) == []


class TestGrowSpareNodeBudget:
    """Regression: the malleable path against the EASY spare-node fix.

    ``plan`` charges ``extra_nodes`` for any backfilled job whose kill
    limit reaches past the head's shadow time.  A *growing* job believed
    to run past the shadow holds spares exactly the same way, so growth
    must burn the same budget — otherwise the grower re-consumes spares
    a backfill decision (or an earlier grower) already spoke for, and
    together they encroach on the head's reservation.
    """

    def _blocked_head_state(self, head_nodes, head_min):
        # 20 nodes; a rigid job holds 10 until t=100; an elastic job
        # holds 4 and is believed to run far past any shadow time.
        pool = NodePool(range(20))
        rigid = make_job(1, 10, estimate=100.0)
        pool.allocate(rigid, now=0.0)
        rigid.start(0.0, pool.running[1].node_ids)
        grower = elastic(2, 4, 2, 20, estimate=9999.0)
        pool.allocate(grower, now=0.0)
        grower.start(0.0, pool.running[2].node_ids)
        # The head reserves at its *min* width (the width phase 1 would
        # actually start it at), so ``head_min`` pins the spare budget.
        head = elastic(3, head_nodes, head_min, head_nodes)
        return pool, queued(head)

    def test_grower_past_shadow_capped_by_extra_budget(self):
        # Head's min width 6 consumes every free node: extra = 0.
        pool, q = self._blocked_head_state(16, 6)
        decisions = BackfillScheduler(malleable=True).plan_resizes(q, pool, now=0.0)
        assert decisions == []  # no budget -> no growth
        assert len(pool.running[2].node_ids) == 4

    def test_grower_within_budget_takes_only_spares(self):
        # Head's min width 4 leaves 2 of the 6 free nodes spare.
        pool, q = self._blocked_head_state(14, 4)
        decisions = BackfillScheduler(malleable=True).plan_resizes(q, pool, now=0.0)
        assert len(decisions) == 1
        assert len(decisions[0].added) == 2  # capped at extra, not n_free=6
        assert len(pool.running[2].node_ids) == 6

    def test_two_growers_cannot_double_count_spares(self):
        # Same shape as TestSpareNodeAccounting's race, via growth: two
        # elastic jobs past the shadow share one extra budget of 2.
        pool = NodePool(range(20))
        rigid = make_job(1, 10, estimate=100.0)
        pool.allocate(rigid, now=0.0)
        rigid.start(0.0, pool.running[1].node_ids)
        for job_id in (2, 3):
            g = elastic(job_id, 2, 2, 20, estimate=9999.0)
            pool.allocate(g, now=0.0)
            g.start(0.0, pool.running[job_id].node_ids)
        q = queued(elastic(4, 14, 4, 14))  # head min 4: extra = 6 - 4 = 2
        decisions = BackfillScheduler(malleable=True).plan_resizes(q, pool, now=0.0)
        grown = sum(len(d.added) for d in decisions)
        assert grown == 2  # one budget, not one per grower


class TestMalleableHeadReservation:
    """Regression: the EASY shadow walk reserves a malleable head at the
    width it can actually start at.

    Phase 1 starts a blocked elastic head *shrunk* as soon as
    ``min_nodes`` are free, so a reservation computed from its original
    ``n_nodes`` models a start that never happens: the shadow lands too
    late and the spare budget is charged at the wrong instant
    (the ROADMAP's rigid-width bug).
    """

    def _machine(self):
        # 20 nodes; a rigid job holds 10 until t=100; an elastic job
        # holds 4 forever; 6 free.
        pool = NodePool(range(20))
        rigid = make_job(1, 10, estimate=100.0)
        pool.allocate(rigid, now=0.0)
        rigid.start(0.0, pool.running[1].node_ids)
        grower = elastic(2, 4, 2, 20, estimate=9999.0)
        pool.allocate(grower, now=0.0)
        grower.start(0.0, pool.running[2].node_ids)
        return pool

    def test_reservation_uses_min_width_for_malleable_head(self):
        pool = self._machine()
        head = elastic(3, 16, 8, 16)  # blocked even at min (8 > 6 free)
        sched = BackfillScheduler(malleable=True)
        shadow, extra = sched._reservation(head, pool, now=0.0)
        # min width 8 is satisfied at the rigid release (6 + 10 = 16
        # free): 8 spare nodes, not the 0 the rigid width 16 implied.
        assert shadow == 100.0
        assert extra == 8

    def test_rigid_mode_reservation_unchanged(self):
        pool = self._machine()
        head = elastic(3, 16, 8, 16)
        shadow, extra = BackfillScheduler()._reservation(head, pool, now=0.0)
        assert shadow == 100.0
        assert extra == 0  # malleable off: the head's full width reserves

    def test_head_startable_at_min_shadow_is_now(self):
        pool = self._machine()
        head = elastic(3, 16, 2, 16)  # fits shrunk right now (2 <= 6)
        sched = BackfillScheduler(malleable=True)
        shadow, extra = sched._reservation(head, pool, now=5.0)
        assert shadow == 5.0
        assert extra == 4

    def test_backfill_uses_min_width_spare_budget(self):
        # A 6-node candidate with a kill limit far past the shadow can
        # only start on the *spare* budget.  At the head's min width the
        # budget is 8 >= 6 -> it backfills; the rigid width said 0.
        pool = self._machine()
        head = elastic(3, 16, 8, 16)
        filler = make_job(4, 6, runtime=5000.0, estimate=5000.0)
        q = queued(head, filler)
        decisions = BackfillScheduler(malleable=True).plan(q, pool, now=0.0)
        assert [job.job_id for job, _ in decisions] == [4]

    def test_rigid_mode_denies_that_backfill(self):
        pool = self._machine()
        head = elastic(3, 16, 8, 16)
        filler = make_job(4, 6, runtime=5000.0, estimate=5000.0)
        q = queued(head, filler)
        assert BackfillScheduler().plan(q, pool, now=0.0) == []
