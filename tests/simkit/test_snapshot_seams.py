"""Tests for the simulator's snapshot seams (repro.snapshot's kernel API).

Covers the three seams cold restore is built on — ``run_until_count``,
``restore_clock``, ``snapshot_state`` — plus a regression for the
hostile-state family "failure announced but not yet effective": a fault
scheduled for later in the day is known to the monitor at the cut, but
has not landed yet, and resume must still be byte-identical.
"""

import pytest

from repro.api import SimulationConfig
from repro.errors import SimulationError
from repro.simkit.core import Simulator
from tests.snapshot.helpers import cold_split_run, straight_run, warm_split_run


class TestRunUntilCount:
    def test_backwards_count_raises(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1
        with pytest.raises(SimulationError, match="in the past"):
            sim.run_until_count(0)

    def test_stops_on_heap_drain(self):
        sim = Simulator()
        for when in (1.0, 2.0, 3.0):
            sim.call_at(when, lambda: None)
        assert sim.run_until_count(10) == 3
        assert sim.events_processed == 3

    def test_deadline_is_event_boundary_not_clock_target(self):
        sim = Simulator()
        for when in (1.0, 2.0, 3.0):
            sim.call_at(when, lambda: None)
        assert sim.run_until_count(3, deadline=2.5) == 2
        assert sim.events_processed == 2
        # Unlike run(until=2.5), the clock stays on the last processed
        # event — restore_clock reproduces the final value separately.
        assert sim.now == 2.0

    def test_exact_count_pauses_mid_heap(self):
        sim = Simulator()
        for when in (1.0, 2.0, 3.0):
            sim.call_at(when, lambda: None)
        assert sim.run_until_count(2) == 2
        assert sim.now == 2.0
        assert sim.peek() == 3.0  # the rest is still live


class TestRestoreClock:
    def test_advances_without_processing(self):
        sim = Simulator()
        sim.call_at(9.0, lambda: None)
        sim.restore_clock(5.0)
        assert sim.now == 5.0
        assert sim.events_processed == 0

    def test_backwards_raises(self):
        sim = Simulator()
        sim.restore_clock(5.0)
        for when in (4.0, float("nan")):
            with pytest.raises(SimulationError, match="backwards"):
                sim.restore_clock(when)


class TestSnapshotState:
    def test_heap_is_reported_sorted(self):
        sim = Simulator()
        sim.call_at(3.0, lambda: None)
        sim.call_at(1.0, lambda: None)
        state = sim.snapshot_state()
        assert [entry[0] for entry in state["heap"]] == [1.0, 3.0]

    def test_cancelled_entries_never_leak(self):
        # Cancelled events are lazily deleted, so their physical heap
        # position is timing-dependent; the captured state must be
        # identical whether or not peek() happened to prune them.
        sim = Simulator()
        doomed = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        doomed.cancel()
        state = sim.snapshot_state()
        assert [entry[0] for entry in state["heap"]] == [2.0]
        sim.peek()  # physically prunes the cancelled root
        assert sim.snapshot_state() == state


class TestAnnouncedFailureEquivalence:
    """Hostile state: a fault is announced to the monitor at t=0 but only
    lands at noon — cut the run in between and resume must match."""

    CONFIG = SimulationConfig(
        rm="eslurm", n_nodes=32, n_satellites=2, seed=3, n_jobs=20,
        horizon_s=86_400.0,
    )
    FAULT_AT = 12 * 3600.0

    @classmethod
    def announced_fault(cls, world):
        # schedule_fault informs the monitor immediately; the nodes only
        # go down at FAULT_AT.
        world.cluster.failures.schedule_fault(
            "point", cls.FAULT_AT, (1, 2), 1800.0
        )

    def test_resume_between_announce_and_apply_is_byte_identical(self):
        straight, _ = straight_run(self.CONFIG, setup=self.announced_fault)
        snapshot, warm = warm_split_run(self.CONFIG, 2000, setup=self.announced_fault)
        assert snapshot.sim_now < self.FAULT_AT  # cut precedes the fault landing
        assert warm == straight
        assert cold_split_run(snapshot, setup=self.announced_fault) == straight
