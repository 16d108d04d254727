"""First-fit from the free floor against the full scan it replaced.

``NodePool._pop_smallest_free`` reads the state column from the floor
(no column below it is FREE) in doubling windows; the reference reads
the whole column with ``flatnonzero(state == FREE)`` and keeps the first
k.  The same random operations go to a pool of each kind and every
answer, column and counter must match, while the floor stays a true
lower bound on the free columns.  The floor pool's first window is
drawn small, so that scans cross several windows.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import SchedulingError
from repro.sched import Job, NodePool
from repro.sched.allocator import _FREE


class ScanPool(NodePool):
    """``_pop_smallest_free`` as it was: one scan of the whole column."""

    def _pop_smallest_free(self, k):
        cols = np.flatnonzero(self._state == _FREE)[:k]
        if len(cols) < k:
            raise SchedulingError(
                f"free count drifted: wanted {k} nodes, {len(cols)} free in the state column"
            )
        return cols


def make_job(job_id, n_nodes):
    return Job(job_id, "j", "u", max(n_nodes, 1), 10.0, 10.0, 0.0)


class FloorTwinMachine(RuleBasedStateMachine):
    universe: list[int] = []

    def __init__(self):
        super().__init__()
        self.pool = NodePool(self.universe)
        self.ref = ScanPool(self.universe)
        self.next_id = 1

    @initialize(window=st.sampled_from([1, 3, 16, NodePool.SCAN_MIN_WINDOW]))
    def first_window(self, window):
        # an instance attribute shadows the class's first-window width
        self.pool.SCAN_MIN_WINDOW = window

    def both(self, op, *args):
        """``op`` on both pools: equal results, or both raise."""
        outcomes = []
        for pool in (self.pool, self.ref):
            try:
                outcomes.append(getattr(pool, op)(*args))
            except SchedulingError as exc:
                outcomes.append(type(exc))
        got, want = outcomes
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and got.tolist() == want.tolist()
        else:
            assert got == want
        return want

    @rule(data=st.data())
    def allocate(self, data):
        k = data.draw(st.integers(0, self.pool.n_free + 2) | st.integers(0, 3))
        self.both("allocate", make_job(self.next_id, k), 0.0, k)
        self.next_id += 1

    @precondition(lambda self: self.ref.running)
    @rule(data=st.data())
    def grow(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.ref.running)))
        k = data.draw(st.integers(0, self.pool.n_free + 2) | st.integers(0, 3))
        self.both("grow_allocation", job_id, k)

    @precondition(lambda self: self.ref.running)
    @rule(data=st.data())
    def shrink(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.ref.running)))
        held = self.ref.running[job_id].node_ids.tolist()
        removed = data.draw(st.lists(st.sampled_from(held), unique=True)) if held else []
        self.both("shrink_allocation", job_id, removed)

    @precondition(lambda self: self.ref.running)
    @rule(data=st.data())
    def release(self, data):
        self.both("release", data.draw(st.sampled_from(sorted(self.ref.running))))

    @rule(data=st.data())
    def mark_down(self, data):
        self.both("mark_down", data.draw(st.sampled_from(self.universe)))

    @rule(data=st.data())
    def mark_up(self, data):
        self.both("mark_up", data.draw(st.sampled_from(self.universe)))

    @invariant()
    def pools_match(self):
        pool, ref = self.pool, self.ref
        assert np.array_equal(pool._state, ref._state)
        assert np.array_equal(pool._owner, ref._owner)
        assert (pool.n_free, pool._n_down, pool.elastic_slack) == (
            ref.n_free,
            ref._n_down,
            ref.elastic_slack,
        )
        assert {j: r.node_ids.tolist() for j, r in pool.running.items()} == {
            j: r.node_ids.tolist() for j, r in ref.running.items()
        }

    @invariant()
    def floor_is_a_lower_bound(self):
        assert not (self.pool._state[: self.pool._floor] == _FREE).any()


class DenseFloorTwin(FloorTwinMachine):
    universe = list(range(300))


class SparseFloorTwin(FloorTwinMachine):
    # ids with gaps, so a column is not its id
    universe = list(range(1003, 1003 + 5 * 200, 5))


_twin_settings = settings(max_examples=40, stateful_step_count=40, deadline=None)
TestDenseFloorTwin = DenseFloorTwin.TestCase
TestDenseFloorTwin.settings = _twin_settings
TestSparseFloorTwin = SparseFloorTwin.TestCase
TestSparseFloorTwin.settings = _twin_settings


class TestFloor:
    def test_claim_raises_the_floor_past_the_columns_taken(self):
        pool = NodePool(range(200))
        pool.allocate(make_job(1, 70), 0.0)
        assert pool._floor == 70

    def test_scan_alone_leaves_the_floor(self):
        pool = NodePool(range(200))
        assert pool._pop_smallest_free(70).tolist() == list(range(70))
        assert pool._floor == 0

    def test_release_and_repair_lower_the_floor(self):
        pool = NodePool(range(200))
        pool.allocate(make_job(1, 100), 0.0)
        pool.mark_down(150)
        pool.allocate(make_job(2, 60), 0.0)
        assert pool._floor == 161
        pool.mark_up(150)
        assert pool._floor == 150
        pool.release(1)
        assert pool._floor == 0
        assert pool.allocate(make_job(3, 3), 0.0).tolist() == [0, 1, 2]

    def test_placement_claims_leave_the_floor(self):
        class Last:
            def select(self, free, k):
                return sorted(free)[-k:]

        pool = NodePool(range(100), placement=Last())
        pool.allocate(make_job(1, 10), 0.0)
        assert pool._floor == 0

    @pytest.mark.parametrize("window", [7, NodePool.SCAN_MIN_WINDOW])
    def test_drift_is_still_caught(self, window):
        pool = NodePool(range(300))
        pool.SCAN_MIN_WINDOW = window
        pool._n_free += 1  # corrupt the counter behind the columns' back
        with pytest.raises(SchedulingError, match="drifted: wanted 301 nodes, 300 free"):
            pool.allocate(make_job(1, 301), 0.0)
