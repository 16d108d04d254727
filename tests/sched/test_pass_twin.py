"""The scheduler pass against twins of its former bodies.

Two byte-identical speed-ups in one pass, each checked against the code
it replaced:

* ``NodePool._handout`` hands out one run of consecutive free columns
  as a view of the id column and anything else as a ``take``; the
  reference maps every column to its id.  Both must give equal ids, as
  a read-only ``int64`` array.
* ``BackfillScheduler.plan`` walks the head's reservation only at the
  first backfill candidate that fits; the reference walks it on every
  pass with a free node.  Decisions and pool and queue state must match.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import BackfillScheduler, Job, JobQueue, NodePool
from repro.sched.allocator import _BUSY, _DOWN, _FREE
from repro.telemetry import facade as telemetry

# -- handout ----------------------------------------------------------------

#: a state column as runs: mixes of long runs and single columns
state_runs = st.lists(
    st.tuples(st.sampled_from([_FREE, _BUSY, _DOWN]), st.integers(1, 3) | st.integers(1, 40)),
    min_size=1,
    max_size=20,
)


def universe(n, sparse, gaps):
    """``range(n)``, or ``n`` ascending ids with gaps (a column is not its id)."""
    if not sparse:
        return range(n)
    ids, nid = [], 1000
    for i in range(n):
        nid += 1 + gaps[i % len(gaps)]
        ids.append(nid)
    return ids


def pool_with_states(runs, sparse, gaps):
    states = np.repeat([s for s, _ in runs], [n for _, n in runs]).astype(np.uint8)
    pool = NodePool(universe(len(states), sparse, gaps))
    pool._state[:] = states
    pool._n_free = int((states == _FREE).sum())
    pool._n_down = int((states == _DOWN).sum())
    return pool


class TestHandout:
    @given(state_runs, st.booleans(), st.lists(st.integers(0, 5), min_size=1, max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_run_slices_equal_per_id_map(self, runs, sparse, gaps):
        pool = pool_with_states(runs, sparse, gaps)
        ids = pool._id_col.tolist()
        for k in range(pool.n_free + 1):
            cols = pool._pop_smallest_free(k)
            got = pool._handout(cols)
            assert got.tolist() == list(map(ids.__getitem__, cols.tolist()))
            assert got.dtype == np.int64 and not got.flags.writeable

    @given(state_runs, st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_allocate_hands_out_read_only_int64(self, runs, sparse, data):
        pool = pool_with_states(runs, sparse, [3, 0, 1])
        ids = pool._id_col.tolist()
        k = data.draw(st.integers(0, pool.n_free))
        cols = np.flatnonzero(pool._state == _FREE)[:k].tolist()
        job = Job(1, "j", "u", max(k, 1), 10.0, 10.0, 0.0)
        chosen = pool.allocate(job, 0.0, width=k)
        assert chosen.tolist() == [ids[c] for c in cols]
        assert chosen.dtype == np.int64 and not chosen.flags.writeable
        assert chosen.base is pool._id_col or chosen.base is None
        assert not pool.free_ids() & set(chosen.tolist())
        assert pool.n_free == int((pool._state == _FREE).sum())


# -- lazy reservation -------------------------------------------------------


class EagerBackfillScheduler(BackfillScheduler):
    """``plan`` as it was: the reservation is walked before phase 3 on
    every pass that has a free node and a candidate."""

    def plan(self, queue, pool, now):
        decisions = []
        shrunk_starts = 0
        while True:
            head = queue.head()
            if head is None:
                break
            if pool.fits(head):
                nodes = pool.allocate(head, now)
            elif self.malleable and head.malleable and pool.n_free >= head.min_nodes:
                width = pool.n_free if pool.n_free < head.n_nodes else head.n_nodes
                nodes = pool.allocate(head, now, width)
                pool.retime(head.job_id, now + head.limit_s * (head.n_nodes / width))
                shrunk_starts += 1
            else:
                break
            queue.remove(head)
            decisions.append((head, nodes))
        if shrunk_starts:
            telemetry.count("sched.start.shrunk", shrunk_starts)
        head = queue.head()
        if head is None:
            return decisions
        tel = telemetry.active()
        candidates = queue.backfill_candidates(self.max_backfill_depth)
        if tel is not None:
            tel.count("sched.backfill.attempts", len(candidates))
        if pool.n_free == 0 or not candidates:
            return decisions
        shadow_time, extra_nodes = self._reservation(head, pool, now)
        free = pool.n_free
        for job in candidates:
            if job.n_nodes > free:
                continue
            finishes_before_shadow = now + job.planned_s <= shadow_time
            uses_spare_nodes = job.n_nodes <= extra_nodes
            if finishes_before_shadow or uses_spare_nodes:
                nodes = pool.allocate(job, now)
                free = pool.n_free
                queue.remove(job)
                decisions.append((job, nodes))
                if tel is not None:
                    tel.count("sched.backfill.starts")
                if now + job.limit_s > shadow_time:
                    extra_nodes -= job.n_nodes
        return decisions


N_NODES = 16


class Arm:
    """One scheduler with its own pool and queue, driven step by step."""

    def __init__(self, scheduler_cls, malleable, depth, sparse):
        self.sched = scheduler_cls(max_backfill_depth=depth, malleable=malleable)
        self.ids = list(universe(N_NODES, sparse, [2, 0, 5]))
        self.pool = NodePool(self.ids)
        self.queue = JobQueue()
        self.n_submitted = 0
        self.now = 0.0

    def apply(self, step):
        op, arg = step
        pool = self.pool
        if op == "submit":
            width, below, above, limit, planned_frac = arg
            self.n_submitted += 1
            self.queue.submit(Job(
                self.n_submitted, "j", "u", width, limit, limit, 0.0,
                min_nodes=max(width - below, 1), max_nodes=width + above,
                planned_s=limit * planned_frac,
            ))
        elif op == "pass":
            decisions = self.sched.plan(self.queue, pool, self.now)
            return [(j.job_id, nodes.tolist()) for j, nodes in decisions]
        elif op == "release":
            if pool.running:
                running = sorted(pool.running)
                pool.release(running[arg % len(running)])
        elif op == "fail":
            pool.mark_down(self.ids[arg])
        elif op == "recover":
            pool.mark_up(self.ids[arg])
        else:
            self.now += arg
        return None

    def observables(self):
        pool, queue = self.pool, self.queue
        return (
            pool.free_ids(),
            pool.down_ids(),
            list(pool.believed_ends()),
            [job.job_id for job in queue],
            queue.demand_nodes,
        )


# widths up to the whole machine: with nodes down the head can be unsatisfiable
job_shape = st.tuples(
    st.integers(1, 4) | st.integers(1, N_NODES), st.integers(0, 4), st.integers(0, 4),
    st.sampled_from([50.0, 100.0, 400.0]), st.sampled_from([0.25, 1.0]),
)
node = st.integers(0, N_NODES - 1)
step = st.one_of(
    st.tuples(st.just("submit"), job_shape),
    st.tuples(st.just("submit"), job_shape),
    st.tuples(st.just("pass"), st.none()),
    st.tuples(st.just("pass"), st.none()),
    st.tuples(st.just("release"), st.integers(0, 15)),
    st.tuples(st.sampled_from(["fail", "recover"]), node),
    st.tuples(st.just("advance"), st.sampled_from([10.0, 60.0])),
)


class TestLazyReservation:
    @given(
        st.lists(step, min_size=10, max_size=60),
        st.booleans(),
        st.integers(0, 6),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_plan_equals_eager_reservation(self, steps, malleable, depth, sparse):
        lazy = Arm(BackfillScheduler, malleable, depth, sparse)
        eager = Arm(EagerBackfillScheduler, malleable, depth, sparse)
        for s in steps:
            assert lazy.apply(s) == eager.apply(s)
            assert lazy.observables() == eager.observables()

    def test_pass_where_nothing_fits_skips_the_walk(self):
        calls = []

        class Counting(BackfillScheduler):
            def _reservation(self, head, pool, now):
                calls.append(head.job_id)
                return super()._reservation(head, pool, now)

        pool, queue = NodePool(range(8)), JobQueue()
        pool.allocate(Job(1, "j", "u", 6, 100.0, 100.0, 0.0), 0.0)
        for job_id, width in ((2, 8), (3, 4), (4, 3)):
            queue.submit(Job(job_id, "j", "u", width, 50.0, 50.0, 0.0))
        assert Counting().plan(queue, pool, 0.0) == []
        assert calls == []
        queue.submit(Job(5, "j", "u", 2, 50.0, 50.0, 0.0))
        assert [j.job_id for j, _ in Counting().plan(queue, pool, 0.0)] == [5]
        assert calls == [2]

    def test_reservation_is_walked_once_per_pass(self):
        """A start moves a re-walked shadow (here from t=100 to t=150),
        so the walk must not be repeated after the first candidate."""

        def world():
            pool, queue = NodePool(range(10)), JobQueue()
            pool.allocate(Job(1, "j", "u", 3, 100.0, 100.0, 0.0), 0.0)
            pool.allocate(Job(2, "j", "u", 3, 300.0, 300.0, 0.0), 0.0)
            queue.submit(Job(3, "j", "u", 7, 100.0, 100.0, 0.0))
            # planned inside the shadow, limit past it: burns 2 spares
            queue.submit(Job(4, "j", "u", 2, 150.0, 150.0, 0.0, planned_s=50.0))
            # planned between the shadow and the shadow a re-walk finds
            queue.submit(Job(5, "j", "u", 1, 120.0, 120.0, 0.0))
            return pool, queue

        for scheduler in (BackfillScheduler(), EagerBackfillScheduler()):
            pool, queue = world()
            assert [j.job_id for j, _ in scheduler.plan(queue, pool, 0.0)] == [4]
            assert [j.job_id for j in queue] == [3, 5]
