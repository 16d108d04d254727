"""Tests for primitive events and cancellation."""

from repro.simkit import Simulator
from tests.simkit import cancel, event_at


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        fired = []
        ev = event_at(sim, 5.0)
        ev.callbacks.append(lambda e: fired.append(sim.now))
        cancel(ev)
        sim.run()
        assert fired == []
        assert sim.events_processed == 0
        assert sim.now == 0.0  # cancelled entries do not advance the clock

    def test_cancelled_events_skipped_in_order(self):
        sim = Simulator()
        order = []

        def note(tag):
            return lambda e: order.append(tag)

        a = event_at(sim, 1.0)
        b = event_at(sim, 2.0)
        c = event_at(sim, 3.0)
        a.callbacks.append(note("a"))
        b.callbacks.append(note("b"))
        c.callbacks.append(note("c"))
        cancel(b)
        sim.run()
        assert order == ["a", "c"]
        assert sim.events_processed == 2

    def test_peek_prunes_cancelled_top(self):
        sim = Simulator()
        early = event_at(sim, 1.0)
        event_at(sim, 5.0)
        cancel(early)
        assert sim.peek() == 5.0

    def test_peek_all_cancelled_is_infinite(self):
        sim = Simulator()
        ev = event_at(sim, 1.0)
        cancel(ev)
        assert sim.peek() == float("inf")

    def test_run_until_deadline_ignores_cancelled(self):
        sim = Simulator()
        late = event_at(sim, 10.0)
        doomed = event_at(sim, 3.0)
        cancel(doomed)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert late.callbacks is not None  # still pending
        assert sim.events_processed == 0

    def test_cancelled_never_reaches_trace_hooks(self):
        sim = Simulator()
        seen = []
        sim.add_trace_hook(lambda when, prio, seq: seen.append(when))
        keep = event_at(sim, 1.0)
        drop = event_at(sim, 2.0)
        event_at(sim, 3.0)
        cancel(drop)
        sim.run()
        assert seen == [1.0, 3.0]
        assert keep.callbacks is None  # processed
