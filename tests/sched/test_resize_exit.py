"""The resize pass's slack exit against the full pass.

``plan_resizes`` returns before sorting the donors whenever the blocked
head's deficit exceeds ``NodePool.elastic_slack``, the nodes malleable
records hold above their floors whatever their job's state.  The slack
bounds the donors' capacity from above, so the full pass would have
returned nothing too.  Every observable must equal a twin scheduler
that always runs the full pass.
"""

import typing as t

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import BackfillScheduler, Job, JobQueue, JobState, NodePool, ResizeDecision

N_NODES = 16


class FullResizeScheduler(BackfillScheduler):
    """The resize pass without the slack exit: every blocked head sorts
    the running records and sums the donors' capacity."""

    def plan_resizes(self, queue: JobQueue, pool: NodePool, now: float) -> list[ResizeDecision]:
        if not self.malleable or not pool.running:
            return []
        decisions: list[ResizeDecision] = []

        def elastic(rec: "t.Any") -> bool:
            return rec.job.malleable and rec.job.state is JobState.RUNNING

        head = queue.head()
        if head is not None:
            need = head.min_nodes if head.malleable else head.n_nodes
            deficit = need - pool.n_free
            if deficit > 0:
                donors = [
                    rec
                    for _, rec in sorted(pool.running.items())
                    if elastic(rec) and len(rec.node_ids) > rec.job.min_nodes
                ]
                capacity = sum(len(r.node_ids) - r.job.min_nodes for r in donors)
                if capacity < deficit:
                    return decisions  # partial shrinks would help nobody
                for rec in donors:
                    if deficit <= 0:
                        break
                    give = min(len(rec.node_ids) - rec.job.min_nodes, deficit)
                    victims = tuple(sorted(rec.node_ids.tolist())[-give:])
                    pool.shrink_allocation(rec.job.job_id, victims)
                    decisions.append(ResizeDecision(rec.job, removed=victims))
                    deficit -= give
                # The freed nodes admit the head on the engine's follow-up
                # pass; growing now would re-consume them.
                return decisions
        if pool.n_free == 0:
            return decisions
        growable = [
            rec
            for _, rec in sorted(pool.running.items())
            if elastic(rec) and len(rec.node_ids) < rec.job.max_nodes
        ]
        if not growable:
            return decisions
        if queue.demand_nodes == 0:
            # Nothing pending: every free node is spare.
            shadow, extra = float("inf"), pool.n_free
        else:
            shadow, extra = self._reservation(head, pool, now)
        for rec in growable:
            if pool.n_free == 0:
                break
            want = min(rec.job.max_nodes - len(rec.node_ids), pool.n_free)
            # Growers holding spares past the shadow burn the budget —
            # the exact rule backfill applies to jobs it admits.
            beyond_shadow = rec.believed_end > shadow
            if beyond_shadow:
                want = min(want, extra)
            if want <= 0:
                continue
            added = pool.grow_allocation(rec.job.job_id, want)
            decisions.append(ResizeDecision(rec.job, added=added))
            if beyond_shadow:
                extra -= want
        return decisions


def make_job(job_id, n_nodes, below=0, above=0, limit=100.0):
    """A job of width ``n_nodes``; ``below``/``above`` > 0 make it malleable."""
    return Job(
        job_id=job_id,
        name=f"job{job_id}",
        user="u",
        n_nodes=n_nodes,
        runtime_s=limit,
        user_estimate_s=limit,
        submit_time=0.0,
        min_nodes=max(n_nodes - below, 1),
        max_nodes=n_nodes + above,
    )


def slack_of(pool):
    """``elastic_slack`` recomputed from the pool's records."""
    return sum(
        max(len(rec.node_ids) - rec.job.min_nodes, 0)
        for rec in pool.running.values()
        if rec.job.malleable
    )


class Arm:
    """One scheduler driving its own pool, queue and jobs, the way the
    RM engine does: plan, launch, resize, apply, re-plan after a shrink."""

    def __init__(self, scheduler_cls):
        self.sched = scheduler_cls(malleable=True)
        self.pool = NodePool(range(N_NODES))
        self.queue = JobQueue()
        self.n_submitted = 0
        self.now = 0.0

    def apply(self, step):
        op, arg = step
        pool = self.pool
        if op == "submit":
            self.n_submitted += 1
            self.queue.submit(make_job(self.n_submitted, *arg))
        elif op == "pass":
            self.sched.plan(self.queue, pool, self.now)  # launched, still PENDING
            resizes = self.sched.plan_resizes(self.queue, pool, self.now)
            for dec in resizes:
                job = dec.job
                if len(dec.added):
                    job.grow(self.now, dec.added)
                if len(dec.removed):
                    job.shrink(self.now, dec.removed)
                width = len(job.allocated_nodes)
                pool.retime(job.job_id, self.now + job.limit_s * job.n_nodes / width)
            if any(len(dec.removed) for dec in resizes):
                self.sched.plan(self.queue, pool, self.now)
            return [
                (d.job.job_id, np.asarray(d.added).tolist(), np.asarray(d.removed).tolist())
                for d in resizes
            ]
        elif op == "start":
            launching = sorted(
                j for j, rec in pool.running.items() if rec.job.state is JobState.PENDING
            )
            if launching:
                rec = pool.running[launching[arg % len(launching)]]
                rec.job.start(self.now, rec.node_ids)
        elif op == "fail":
            # rm/base.py's failure handler: contract a malleable victim
            # above its floor around the dead node, otherwise kill it.
            victim = pool.mark_down(arg)
            if victim is not None:
                rec = pool.running[victim]
                job = rec.job
                if (
                    job.malleable
                    and job.state is JobState.RUNNING
                    and len(rec.node_ids) > job.min_nodes
                ):
                    pool.shrink_allocation(victim, (arg,))
                    job.shrink(self.now, (arg,))
                else:
                    self._end(victim, JobState.FAILED)
        elif op == "recover":
            pool.mark_up(arg)
        elif op == "release":
            running = sorted(
                j for j, rec in pool.running.items() if rec.job.state is JobState.RUNNING
            )
            if running:
                self._end(running[arg % len(running)], JobState.COMPLETED)
        else:
            self.now += arg
        return None

    def _end(self, job_id, state):
        job = self.pool.running[job_id].job
        self.pool.release(job_id)
        if job.state is JobState.RUNNING:
            job.finish(self.now, state)
        else:
            job.cancel(self.now)

    def observables(self):
        pool = self.pool
        return (
            pool.free_ids(),
            pool.down_ids(),
            pool.elastic_slack,
            {j: (rec.node_ids.tolist(), rec.believed_end) for j, rec in pool.running.items()},
            [job.job_id for job in self.queue],
        )


job_shape = st.tuples(st.integers(1, 8), st.integers(0, 4), st.integers(0, 4),
                      st.sampled_from([50.0, 100.0, 400.0]))
node = st.integers(0, N_NODES - 1)
submit = st.tuples(st.just("submit"), job_shape)
run_pass = st.tuples(st.just("pass"), st.none())
start = st.tuples(st.just("start"), st.integers(0, 15))
# submits, passes and starts weigh double: they fill the machine
# enough to block a head
step = st.one_of(
    submit, submit, run_pass, run_pass, start, start,
    st.tuples(st.just("release"), st.integers(0, 15)),
    st.tuples(st.sampled_from(["fail", "recover"]), node),
    st.tuples(st.just("advance"), st.sampled_from([10.0, 60.0])),
)


class TestSlackExit:
    @given(st.lists(step, min_size=10, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_equals_full_pass(self, steps):
        fast, full = Arm(BackfillScheduler), Arm(FullResizeScheduler)
        for s in steps:
            assert fast.apply(s) == full.apply(s)
            assert fast.observables() == full.observables()
            assert fast.pool.elastic_slack == slack_of(fast.pool)

    def _blocked(self, head_width, start=True):
        """A malleable job at width 8 (floor 4) fills the machine, and a
        rigid head of ``head_width`` waits: the slack is 4."""
        pool, sched = NodePool(range(8)), BackfillScheduler(malleable=True)
        donor = make_job(1, 8, below=4)
        nodes = pool.allocate(donor, 0.0)
        if start:
            donor.start(0.0, nodes)
        queue = JobQueue()
        queue.submit(make_job(2, head_width))
        assert pool.elastic_slack == 4
        return pool, queue, sched, donor

    def test_deficit_equal_to_slack_still_contracts(self):
        pool, queue, sched, donor = self._blocked(4)
        decisions = sched.plan_resizes(queue, pool, 0.0)
        assert decisions == [ResizeDecision(donor, removed=(4, 5, 6, 7))]
        assert pool.free_ids() == {4, 5, 6, 7}
        assert pool.elastic_slack == 0

    def test_deficit_one_above_slack_leaves_pool_untouched(self):
        pool, queue, sched, _ = self._blocked(5)
        assert sched.plan_resizes(queue, pool, 0.0) == []
        assert pool.free_ids() == frozenset()
        assert pool.running[1].node_ids.tolist() == list(range(8))
        assert pool.elastic_slack == 4

    def test_launching_record_counts_in_slack_but_donates_nothing(self):
        for sched_cls in (BackfillScheduler, FullResizeScheduler):
            pool, queue, _, donor = self._blocked(4, start=False)
            assert donor.state is JobState.PENDING
            assert sched_cls(malleable=True).plan_resizes(queue, pool, 0.0) == []
            assert pool.running[1].node_ids.tolist() == list(range(8))
            assert pool.elastic_slack == 4
