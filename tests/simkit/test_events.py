"""Tests for primitive events and cancellation."""

import pytest

from repro.errors import SimulationError
from repro.simkit import Simulator


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_event_succeed_carries_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(123)
    assert ev.triggered
    assert ev.ok
    assert ev.value == 123


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(2.0, value="payload")
        return got

    p = sim.process(proc())
    sim.run()
    assert p.value == "payload"


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        fired = []
        ev = sim.timeout(5.0, value="x")
        ev.callbacks.append(lambda e: fired.append(e.value))
        ev.cancel()
        sim.run()
        assert fired == []
        assert sim.events_processed == 0
        assert sim.now == 0.0  # cancelled entries do not advance the clock

    def test_cancel_processed_event_rejected(self):
        sim = Simulator()
        ev = sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            ev.cancel()

    def test_trigger_after_cancel_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.cancel()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("boom"))

    def test_cancelled_events_skipped_in_order(self):
        sim = Simulator()
        order = []

        def note(tag):
            return lambda e: order.append(tag)

        a = sim.timeout(1.0)
        b = sim.timeout(2.0)
        c = sim.timeout(3.0)
        a.callbacks.append(note("a"))
        b.callbacks.append(note("b"))
        c.callbacks.append(note("c"))
        b.cancel()
        sim.run()
        assert order == ["a", "c"]
        assert sim.events_processed == 2

    def test_peek_prunes_cancelled_top(self):
        sim = Simulator()
        early = sim.timeout(1.0)
        sim.timeout(5.0)
        early.cancel()
        assert sim.peek() == 5.0

    def test_peek_all_cancelled_is_infinite(self):
        sim = Simulator()
        ev = sim.timeout(1.0)
        ev.cancel()
        assert sim.peek() == float("inf")

    def test_step_skips_cancelled_entries(self):
        sim = Simulator()
        dead = sim.timeout(1.0)
        live = sim.timeout(2.0, value="ok")
        got = []
        live.callbacks.append(lambda e: got.append(e.value))
        dead.cancel()
        sim.step()
        assert got == ["ok"]
        assert sim.now == 2.0

    def test_step_on_only_cancelled_raises(self):
        sim = Simulator()
        sim.timeout(1.0).cancel()
        with pytest.raises(SimulationError):
            sim.step()

    def test_run_until_deadline_ignores_cancelled(self):
        sim = Simulator()
        late = sim.timeout(10.0)
        doomed = sim.timeout(3.0)
        doomed.cancel()
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert not late.processed
        assert sim.events_processed == 0

    def test_cancelled_never_reaches_trace_hooks(self):
        sim = Simulator()
        seen = []
        sim.add_trace_hook(lambda when, prio, seq: seen.append(when))
        keep = sim.timeout(1.0)
        drop = sim.timeout(2.0)
        sim.timeout(3.0)
        drop.cancel()
        sim.run()
        assert seen == [1.0, 3.0]
        assert keep.processed
