"""The idle-pass skip in ``BackfillScheduler.plan`` is exact.

A pass that started nothing is remembered, and a repeat on the same
queue and pool returns ``[]`` without walking the window while
``pool.version``, ``queue.removals`` and the window are unchanged and
``now`` has not gone back.  The differential test drives two arms with
the same random steps, one whose idle record is cleared before every
pass (the pass as it was without the skip), and asserts equal decisions,
pool and queue state, and telemetry after every step.  The scenario
tests pin one change per reader the skip depends on: each must make the
next pass walk again and start a job.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import BackfillScheduler, Job, JobQueue, NodePool
from repro.telemetry import facade as telemetry

N_NODES = 8


def job(job_id, width, limit, planned_frac=1.0, below=0, above=0):
    return Job(
        job_id, "j", "u", width, limit, limit, 0.0,
        min_nodes=max(width - below, 1), max_nodes=width + above,
        planned_s=limit * planned_frac,
    )


class Arm:
    """One scheduler with its own pool and queue, driven step by step."""

    def __init__(self, malleable, depth, forget):
        self.sched = BackfillScheduler(max_backfill_depth=depth, malleable=malleable)
        self.forget = forget
        self.pool = NodePool(range(N_NODES))
        self.queue = JobQueue()
        self.n_submitted = 0
        self.now = 0.0

    def running(self, i):
        """The ``i``-th running job id (modulo), or ``None``."""
        ids = sorted(self.pool.running)
        return ids[i % len(ids)] if ids else None

    def apply(self, step):
        op, arg = step
        pool, queue = self.pool, self.queue
        if op == "submit":
            self.n_submitted += 1
            queue.submit(job(self.n_submitted, *arg))
        elif op == "pass":
            if self.forget:
                self.sched._idle = None
            with telemetry.session() as tel:
                decisions = self.sched.plan(queue, pool, self.now)
            return (
                [(j.job_id, nodes.tolist()) for j, nodes in decisions],
                tel.registry.snapshot(),
            )
        elif op == "remove":
            if queue:
                queue.remove(list(queue)[arg % len(queue)])
        elif op == "release":
            if (job_id := self.running(arg)) is not None:
                pool.release(job_id)
        elif op == "retime":
            i, delta = arg
            if (job_id := self.running(i)) is not None:
                pool.retime(job_id, self.now + delta)
        elif op == "grow":
            i, k = arg
            if (job_id := self.running(i)) is not None and pool.n_free:
                pool.grow_allocation(job_id, min(k, pool.n_free))
        elif op == "shrink":
            i, k = arg
            if (job_id := self.running(i)) is not None:
                held = pool.running[job_id].node_ids
                if len(held) > 1:
                    pool.shrink_allocation(job_id, held[-min(k, len(held) - 1):])
        elif op == "fail":
            pool.mark_down(arg)
        elif op == "recover":
            down = sorted(pool.down_ids())
            if down:
                pool.mark_up(down[arg % len(down)])
        else:
            # ``plan`` takes any ``now``; a record must not carry its
            # verdict to an earlier one
            self.now += arg
        return None

    def observables(self):
        pool, queue = self.pool, self.queue
        return (
            pool.free_ids(),
            pool.down_ids(),
            list(pool.believed_ends()),
            sorted((i, r.node_ids.tolist()) for i, r in pool.running.items()),
            [j.job_id for j in queue],
            queue.demand_nodes,
        )


job_shape = st.tuples(
    st.integers(1, 4) | st.integers(1, N_NODES),
    st.sampled_from([50.0, 100.0, 400.0]),
    st.sampled_from([0.25, 1.0]),
    st.integers(0, 3),
    st.integers(0, 3),
)
node = st.integers(0, N_NODES - 1)
retime = st.tuples(st.just("retime"), st.tuples(st.integers(0, 7), st.sampled_from([20.0, 150.0, 900.0])))
grow = st.tuples(st.just("grow"), st.tuples(st.integers(0, 7), st.integers(1, 2)))
# submits, retimes and grows drawn twice as often: the latter two only
# start a job when they move the head's shadow past a candidate
op = st.one_of(
    st.tuples(st.just("submit"), job_shape),
    st.tuples(st.just("submit"), job_shape),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    st.tuples(st.just("release"), st.integers(0, 7)),
    retime,
    retime,
    grow,
    grow,
    st.tuples(st.just("shrink"), st.tuples(st.integers(0, 7), st.integers(1, 3))),
    st.tuples(st.just("fail"), node),
    st.tuples(st.just("recover"), st.integers(0, 7)),
    st.tuples(st.just("advance"), st.sampled_from([10.0, 60.0, -60.0, -300.0])),
)


class TestIdlePassDifferential:
    @given(
        # each op, then a pass when its flag is set: most passes follow
        # a single change, as they do in a day
        st.lists(st.tuples(op, st.booleans()), min_size=20, max_size=80),
        st.booleans(),
        st.integers(0, 4) | st.just(100),
    )
    @settings(max_examples=300, deadline=None)
    def test_plan_equals_plan_without_idle_record(self, steps, malleable, depth):
        skipping = Arm(malleable, depth, forget=False)
        walking = Arm(malleable, depth, forget=True)
        for s, then_pass in steps:
            for step in [s, ("pass", None)] if then_pass else [s]:
                assert skipping.apply(step) == walking.apply(step)
                assert skipping.observables() == walking.observables()


# -- one change per reader ---------------------------------------------------


class Counting(BackfillScheduler):
    """Counts reservation walks: a skipped pass makes none."""

    walks = 0

    def _reservation(self, head, pool, now):
        self.walks += 1
        return super()._reservation(head, pool, now)


def blocked_world(head_width=7, candidate_width=1, down=()):
    """Ten nodes, 2 free; job 1 holds 5 until t=100, job 2 holds 3 until
    t=300.  The head (job 3) is blocked, and the candidate (job 4,
    planned to t=200) neither ends by the shadow nor fits the spares."""
    pool, queue = NodePool(range(10)), JobQueue()
    pool.allocate(job(1, 5, 100.0), 0.0)
    pool.allocate(job(2, 3, 300.0), 0.0)
    for node_id in down:
        pool.mark_down(node_id)
    queue.submit(job(3, head_width, 100.0))
    queue.submit(job(4, candidate_width, 200.0))
    return pool, queue


def change_retime(pool, queue):
    pool.retime(1, 1000.0)


def change_release(pool, queue):
    pool.release(2)


def change_shrink(pool, queue):
    pool.shrink_allocation(2, pool.running[2].node_ids[-1:])


def change_grow(pool, queue):
    pool.grow_allocation(2, 1)


def change_mark_down(pool, queue):
    pool.mark_down(9)


def change_remove(pool, queue):
    # same length, new window: the removed head's place goes to job 5
    queue.remove(queue.head())
    queue.submit(job(5, 1, 50.0))


def change_submit(pool, queue):
    queue.submit(job(5, 1, 50.0))


def change_mark_up(pool, queue):
    pool.mark_up(9)


def no_change(pool, queue):
    pass


CHANGES = {
    "retime": (change_retime, {}, 0.0),
    "release": (change_release, {}, 0.0),
    "shrink": (change_shrink, {}, 0.0),
    "grow": (change_grow, {}, 0.0),
    "mark_down": (change_mark_down, {}, 0.0),
    # node 9 down leaves one free node: the 2-node candidate does not fit
    "mark_up": (change_mark_up, {"head_width": 8, "candidate_width": 2, "down": (9,)}, 0.0),
    "remove": (change_remove, {}, 0.0),
    "submit": (change_submit, {}, 0.0),
    # at t=-150 the candidate's planned end (t=50) is inside the shadow
    "earlier_now": (no_change, {}, -150.0),
}


class TestIdlePassScenarios:
    def test_unchanged_repeat_skips_the_walk(self):
        pool, queue = blocked_world()
        sched = Counting()
        with telemetry.session() as tel:
            assert sched.plan(queue, pool, 0.0) == []
            assert sched.plan(queue, pool, 50.0) == []
        assert sched.walks == 1
        assert tel.registry.counter("sched.backfill.attempts").value == 2

    def test_submit_behind_a_full_window_skips(self):
        pool, queue = blocked_world()
        sched = Counting(max_backfill_depth=1)
        assert sched.plan(queue, pool, 0.0) == []
        queue.submit(job(5, 1, 50.0))  # would backfill, but is outside the window
        assert sched.plan(queue, pool, 0.0) == []
        assert sched.walks == 1

    @pytest.mark.parametrize("name", sorted(CHANGES))
    def test_change_makes_the_next_pass_walk(self, name):
        change, world, now = CHANGES[name]
        pool, queue = blocked_world(**world)
        sched = BackfillScheduler()
        assert sched.plan(queue, pool, 0.0) == []
        change(pool, queue)
        started = [j.job_id for j, _ in sched.plan(queue, pool, now)]
        assert started
