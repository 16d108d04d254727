"""Tests for the node pool."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import SchedulingError
from repro.sched import Job, NodePool


def make_job(job_id=1, n_nodes=2, runtime=100.0, estimate=150.0, **kw):
    return Job(
        job_id=job_id,
        name="x",
        user="u",
        n_nodes=n_nodes,
        runtime_s=runtime,
        user_estimate_s=estimate,
        submit_time=0.0,
        **kw,
    )


class TestBasics:
    def test_counts(self):
        pool = NodePool(range(10))
        assert pool.n_total == 10
        assert pool.n_free == 10
        assert pool.n_busy == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SchedulingError):
            NodePool([1, 1, 2])

    def test_allocate_first_fit_by_id(self):
        pool = NodePool([5, 3, 9, 1])
        nodes = pool.allocate(make_job(n_nodes=2), now=0.0)
        assert nodes.tolist() == [1, 3]
        assert pool.n_free == 2

    def test_allocate_too_big_rejected(self):
        pool = NodePool(range(3))
        with pytest.raises(SchedulingError):
            pool.allocate(make_job(n_nodes=5), now=0.0)
        assert not pool.fits(make_job(n_nodes=5))

    def test_release_returns_nodes(self):
        pool = NodePool(range(4))
        job = make_job(n_nodes=3)
        nodes = pool.allocate(job, now=0.0)
        released = pool.release(job.job_id)
        assert released is nodes
        assert pool.n_free == 4

    def test_release_unknown_job(self):
        with pytest.raises(SchedulingError):
            NodePool(range(2)).release(99)


class TestBelievedEnds:
    def test_sorted_by_end(self):
        pool = NodePool(range(10))
        early = make_job(job_id=1, n_nodes=2, estimate=50.0)
        late = make_job(job_id=2, n_nodes=3, estimate=500.0)
        pool.allocate(late, now=0.0)
        pool.allocate(early, now=0.0)
        ends = pool.believed_ends()
        assert ends == [(50.0, 2), (500.0, 3)]


class TestFailures:
    def test_mark_down_free_node(self):
        pool = NodePool(range(4))
        assert pool.mark_down(2) is None
        assert pool.n_free == 3
        assert pool._n_down == 1

    def test_mark_down_busy_node_returns_job(self):
        pool = NodePool(range(4))
        job = make_job(n_nodes=2)
        nodes = pool.allocate(job, now=0.0)
        assert pool.mark_down(nodes[0]) == job.job_id

    def test_down_node_not_refreed_on_release(self):
        pool = NodePool(range(4))
        job = make_job(n_nodes=2)
        nodes = pool.allocate(job, now=0.0)
        pool.mark_down(nodes[0])
        pool.release(job.job_id)
        assert pool.n_free == 3  # the down node stays out
        pool.mark_up(nodes[0])
        assert pool.n_free == 4

    def test_mark_up_while_job_still_holds_node(self):
        pool = NodePool(range(4))
        job = make_job(n_nodes=2)
        nodes = pool.allocate(job, now=0.0)
        pool.mark_down(nodes[0])
        pool.mark_up(nodes[0])  # job still running on it: not freed
        assert pool.n_free == 2
        assert pool._n_down == 0

    def test_unknown_node_rejected(self):
        pool = NodePool(range(2))
        with pytest.raises(SchedulingError):
            pool.mark_down(7)
        with pytest.raises(SchedulingError):
            pool.mark_up(7)


class TestFirstFit:
    """The state-column scan must be observationally identical to sorted(free)[:k]."""

    def test_random_ops_match_sorted_reference(self):
        import random

        rng = random.Random(1234)
        pool = NodePool(range(64))
        model_free = set(range(64))
        model_running = {}
        next_id = 1
        for _ in range(500):
            op = rng.random()
            if op < 0.5 and len(model_free) >= 2:
                k = rng.randint(1, min(4, len(model_free)))
                job = make_job(job_id=next_id, n_nodes=k)
                next_id += 1
                got = pool.allocate(job, now=0.0)
                want = tuple(sorted(model_free)[:k])
                assert tuple(got.tolist()) == want
                model_free -= set(want)
                model_running[job.job_id] = want
            elif op < 0.8 and model_running:
                job_id = rng.choice(sorted(model_running))
                nodes = model_running.pop(job_id)
                pool.release(job_id)
                model_free |= set(n for n in nodes if n not in pool.down_ids())
            elif op < 0.9:
                nid = rng.randrange(64)
                killed = pool.mark_down(nid)
                model_free.discard(nid)
                if killed is not None:
                    nodes = model_running.pop(killed)
                    pool.release(killed)
                    model_free |= set(n for n in nodes if n not in pool.down_ids())
            else:
                nid = rng.randrange(64)
                was_down = nid in pool.down_ids()
                pool.mark_up(nid)
                held = any(nid in nodes for nodes in model_running.values())
                if was_down and not held:
                    model_free.add(nid)
            assert pool.free_ids() == frozenset(model_free)

    def test_release_reuses_lowest_ids(self):
        pool = NodePool(range(8))
        a = make_job(job_id=1, n_nodes=4)
        b = make_job(job_id=2, n_nodes=2)
        assert pool.allocate(a, 0.0).tolist() == [0, 1, 2, 3]
        assert pool.allocate(b, 0.0).tolist() == [4, 5]
        pool.release(1)
        c = make_job(job_id=3, n_nodes=3)
        assert pool.allocate(c, 0.0).tolist() == [0, 1, 2]

    def test_down_node_is_skipped(self):
        pool = NodePool(range(4))
        pool.mark_down(0)
        job = make_job(job_id=1, n_nodes=2)
        assert pool.allocate(job, 0.0).tolist() == [1, 2]

    def test_first_fit_and_counters_exact_under_churn(self):
        pool = NodePool(range(16))
        pool.mark_down(2)
        pool.allocate(make_job(job_id=1000, n_nodes=4), 0.0)  # holds 0, 1, 3, 4
        for i in range(200):
            width = 1 + i % 11
            job = make_job(job_id=i + 1, n_nodes=width)
            assert pool.allocate(job, 0.0).tolist() == list(range(5, 5 + width))
            assert (pool.n_free, pool.n_busy, pool._n_down) == (11 - width, 4 + width, 1)
            pool.release(job.job_id)
            assert (pool.n_free, pool.n_busy, pool._n_down) == (11, 4, 1)
        assert pool.free_ids() == frozenset(range(5, 16))
        assert pool.down_ids() == frozenset({2})
        assert pool.allocate(make_job(job_id=999, n_nodes=3), 0.0).tolist() == [5, 6, 7]

    def test_one_run_is_a_read_only_view_of_the_id_column(self):
        # A view costs no bytes per node: the job keeps alive only the
        # pool's own column.
        pool = NodePool(range(1000))
        pool.allocate(make_job(job_id=1, n_nodes=500), 0.0)
        got = pool.allocate(make_job(job_id=2, n_nodes=300), 0.0)
        assert got.tolist() == list(range(500, 800))
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.base is pool._id_col

    def test_split_runs_are_a_read_only_copy(self):
        pool = NodePool(range(10))
        pool.mark_down(2)
        got = pool.allocate(make_job(job_id=1, n_nodes=4), 0.0)
        assert got.tolist() == [0, 1, 3, 4]
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.base is None

    def test_negative_width_allocate_rejected_without_mutation(self):
        pool = NodePool(range(16))
        with pytest.raises(SchedulingError, match="negative width"):
            pool.allocate(make_job(job_id=1, n_nodes=3), 0.0, width=-3)
        assert pool.n_free == 16 == len(pool.free_ids())
        assert not pool.running and pool._floor == 0
        assert pool.allocate(make_job(job_id=2, n_nodes=1), 0.0, width=0).tolist() == []

    def test_negative_grow_rejected_without_mutation(self):
        pool = NodePool(range(16))
        pool.allocate(make_job(job_id=1, n_nodes=4), 0.0)
        with pytest.raises(SchedulingError, match="negative width"):
            pool.grow_allocation(1, -2)
        assert pool.n_free == 12 == len(pool.free_ids())
        assert pool.running[1].node_ids.tolist() == [0, 1, 2, 3]

    def test_counter_drift_raises_scheduling_error(self):
        pool = NodePool(range(4))
        pool._n_free += 1  # corrupt the counter behind the columns' back
        with pytest.raises(SchedulingError, match="drifted"):
            pool.allocate(make_job(job_id=1, n_nodes=5), 0.0)


class TestShrink:
    def test_duplicate_ids_rejected_without_mutation(self):
        pool = NodePool(range(8))
        pool.allocate(make_job(job_id=1, n_nodes=4), 0.0)
        with pytest.raises(SchedulingError, match="duplicate"):
            pool.shrink_allocation(1, (2, 2))
        assert pool.n_free == 4 == len(pool.free_ids())
        assert pool.running[1].node_ids.tolist() == [0, 1, 2, 3]
        assert pool.allocate(make_job(job_id=2, n_nodes=4), 0.0).tolist() == [4, 5, 6, 7]

    def test_shrink_frees_up_nodes_but_not_down_ones(self):
        pool = NodePool(range(8))
        pool.allocate(make_job(job_id=1, n_nodes=4), 0.0)
        pool.mark_down(3)
        assert pool.shrink_allocation(1, (1, 3)).tolist() == [1, 3]
        assert pool.running[1].node_ids.tolist() == [0, 2]
        assert pool.free_ids() == frozenset({1, 4, 5, 6, 7})
        assert pool.down_ids() == frozenset({3})


class TestGrowConcatenates:
    """A grow appends ids.  ``tuple + ndarray`` adds element-wise without
    an error, so an allocation extended with ``+`` would hold sums."""

    def test_grow_allocation_appends_ids(self):
        pool = NodePool(range(8))
        pool.allocate(make_job(job_id=1, n_nodes=2, min_nodes=1, max_nodes=6), 0.0)
        added = pool.grow_allocation(1, 3)
        assert added.tolist() == [2, 3, 4]
        held = pool.running[1].node_ids
        assert held.tolist() == [0, 1, 2, 3, 4]
        assert held.dtype == np.int64 and not held.flags.writeable
        assert pool.free_ids() == frozenset({5, 6, 7})

    def test_job_grow_and_shrink_keep_ids(self):
        job = make_job(job_id=1, n_nodes=2, min_nodes=1, max_nodes=6)
        job.start(0.0, (4, 5))
        job.grow(1.0, (0, 1))
        job.grow(2.0, np.array([7]))
        assert job.allocated_nodes.tolist() == [4, 5, 0, 1, 7]
        job.shrink(3.0, (5, 1))
        assert job.allocated_nodes.tolist() == [4, 0, 7]
        assert job.allocated_nodes.dtype == np.int64
        assert not job.allocated_nodes.flags.writeable


class TestBelievedEndsCache:
    def test_cache_invalidated_on_allocate_and_release(self):
        pool = NodePool(range(10))
        a = make_job(job_id=1, n_nodes=2, estimate=50.0)
        pool.allocate(a, now=0.0)
        assert pool.believed_ends() == [(50.0, 2)]
        b = make_job(job_id=2, n_nodes=3, estimate=20.0)
        pool.allocate(b, now=0.0)
        assert pool.believed_ends() == [(20.0, 3), (50.0, 2)]
        pool.release(2)
        assert pool.believed_ends() == [(50.0, 2)]

    def test_repeated_calls_return_same_list(self):
        pool = NodePool(range(4))
        pool.allocate(make_job(job_id=1, n_nodes=1, estimate=10.0), now=0.0)
        first = pool.believed_ends()
        assert pool.believed_ends() is first  # memoized between mutations


class PoolMachine(RuleBasedStateMachine):
    """Random pool operations against a naive set-based reference."""

    universe: list[int] = []

    def __init__(self):
        super().__init__()
        self.pool = NodePool(self.universe)
        self.free = set(self.universe)
        self.down: set[int] = set()
        self.running: dict[int, tuple[int, ...]] = {}
        #: ``min_nodes`` of each running malleable job (rigid jobs absent)
        self.floors: dict[int, int] = {}
        self.next_id = 1

    def _held(self):
        return {nid for nodes in self.running.values() for nid in nodes}

    def _first_fit(self, k):
        return tuple(sorted(self.free)[:k])

    def _handed_out(self, ids):
        """``ids`` as a tuple, after checking the allocation contract: a
        read-only ``int64`` array, a view of the pool's id column or a
        copy of its own."""
        assert ids.dtype == np.int64 and not ids.flags.writeable
        assert ids.base is self.pool._id_col or ids.base is None
        return tuple(ids.tolist())

    @rule(k=st.integers(1, 10), below=st.integers(0, 4), above=st.integers(0, 4))
    def allocate(self, k, below, above):
        # below == above == 0 is a rigid job; anything else a malleable one
        floor = max(k - below, 1)
        job = make_job(job_id=self.next_id, n_nodes=k, min_nodes=floor, max_nodes=k + above)
        self.next_id += 1
        if k > len(self.free):
            with pytest.raises(SchedulingError):
                self.pool.allocate(job, 0.0)
            return
        got = self._handed_out(self.pool.allocate(job, 0.0))
        assert got == self._first_fit(k)
        self.free -= set(got)
        self.running[job.job_id] = got
        if job.malleable:
            self.floors[job.job_id] = floor

    @precondition(lambda self: self.running)
    @rule(data=st.data())
    def release(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.running)))
        nodes = self.running.pop(job_id)
        self.floors.pop(job_id, None)
        assert self._handed_out(self.pool.release(job_id)) == nodes
        self.free |= set(nodes) - self.down

    @precondition(lambda self: self.running)
    @rule(data=st.data(), k=st.integers(1, 6))
    def grow(self, data, k):
        job_id = data.draw(st.sampled_from(sorted(self.running)))
        if k > len(self.free):
            with pytest.raises(SchedulingError):
                self.pool.grow_allocation(job_id, k)
            return
        got = self._handed_out(self.pool.grow_allocation(job_id, k))
        assert got == self._first_fit(k)
        self.free -= set(got)
        self.running[job_id] += got
        self._handed_out(self.pool.running[job_id].node_ids)

    @precondition(lambda self: self.running)
    @rule(data=st.data())
    def shrink(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.running)))
        nodes = self.running[job_id]
        removed = tuple(data.draw(st.lists(st.sampled_from(nodes), unique=True))) if nodes else ()
        assert self._handed_out(self.pool.shrink_allocation(job_id, removed)) == removed
        self.running[job_id] = tuple(n for n in nodes if n not in removed)
        self.free |= set(removed) - self.down

    @precondition(lambda self: any(self.running.values()))
    @rule(data=st.data())
    def shrink_duplicate(self, data):
        job_id = data.draw(st.sampled_from(sorted(j for j, ns in self.running.items() if ns)))
        nid = data.draw(st.sampled_from(self.running[job_id]))
        with pytest.raises(SchedulingError):
            self.pool.shrink_allocation(job_id, (nid, nid))

    @rule(data=st.data())
    def mark_down(self, data):
        nid = data.draw(st.sampled_from(self.universe))
        owner = next((j for j, ns in self.running.items() if nid in ns), None)
        assert self.pool.mark_down(nid) == owner
        self.free.discard(nid)
        self.down.add(nid)

    @rule(data=st.data())
    def mark_up(self, data):
        nid = data.draw(st.sampled_from(self.universe))
        self.pool.mark_up(nid)
        if nid in self.down:
            self.down.remove(nid)
            if nid not in self._held():
                self.free.add(nid)

    @invariant()
    def matches_reference(self):
        pool = self.pool
        assert pool.n_free == len(self.free)
        assert pool._n_down == len(self.down)
        assert pool.n_busy == len(self._held() - self.down)
        assert pool.free_ids() == self.free
        assert pool.down_ids() == self.down
        assert {j: tuple(rec.node_ids.tolist()) for j, rec in pool.running.items()} == self.running
        # shrinks and grows here ignore the width range, so a record may
        # sit below its floor: it adds nothing to the slack then
        assert pool.elastic_slack == sum(
            max(len(self.running[j]) - floor, 0) for j, floor in self.floors.items()
        )


class DensePoolMachine(PoolMachine):
    universe = list(range(24))


class SparsePoolMachine(PoolMachine):
    # Ids with gaps, so a column is not its id.
    universe = list(range(1003, 1100, 4))


_machine_settings = settings(max_examples=40, stateful_step_count=40, deadline=None)
TestDensePoolModel = DensePoolMachine.TestCase
TestDensePoolModel.settings = _machine_settings
TestSparsePoolModel = SparsePoolMachine.TestCase
TestSparsePoolModel.settings = _machine_settings
