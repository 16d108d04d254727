"""Tests for the discrete-event simulator core."""

import pytest

from repro.errors import SimulationError
from repro.simkit import Event, Simulator
from repro.telemetry import facade as telemetry
from tests.simkit import cancel, event_at


def sleep_through(sim, delays):
    """One timer re-armed through ``delays``, each from its own firing."""
    pending = list(delays)

    def fire():
        if pending:
            timer.arm(pending.pop(0))

    timer = sim.timer(fire)
    fire()
    return timer


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=100.0)
    assert sim.now == 100.0


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []
    sim.timer(lambda: seen.append(sim.now)).arm(5.0)
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_run_until_number_advances_clock_exactly():
    sim = Simulator()
    sleep_through(sim, [1.0, 1.0, 1.0])
    sim.run(until=2.5)
    assert sim.now == 2.5


def test_run_until_past_raises():
    sim = Simulator(start_time=10.0)
    for until in (5.0, float("nan")):
        with pytest.raises(SimulationError):
            sim.run(until=until)


def test_negative_timeout_rejected():
    sim = Simulator()
    for delay in (-1.0, float("nan")):
        with pytest.raises(SimulationError):
            sim.timer(lambda: None).arm(delay)


def test_schedule_into_the_past_rejected():
    sim = Simulator()
    for delay in (-1.0, float("nan")):
        with pytest.raises(SimulationError, match="into the past"):
            sim.schedule(Event(sim), delay=delay)
    assert sim.peek() == float("inf")  # nothing reached the heap


def test_events_fire_in_fifo_order_at_same_time():
    sim = Simulator()
    order = []
    for tag in range(10):
        event_at(sim, 1.0).callbacks.append(lambda _ev, tag=tag: order.append(tag))
    sim.run()
    assert order == list(range(10))


def test_peek_empty_heap_is_inf():
    sim = Simulator()
    assert sim.peek() == float("inf")


def test_call_at_runs_function_at_time():
    sim = Simulator()
    seen = []
    sim.call_at(7.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.5]


def test_call_at_past_raises():
    sim = Simulator(start_time=5.0)
    for when in (1.0, float("nan")):
        with pytest.raises(SimulationError):
            sim.call_at(when, lambda: None)


def test_events_processed_counter_increases():
    sim = Simulator()
    sleep_through(sim, [1.0, 1.0])
    sim.run()
    assert sim.events_processed == 2


def test_determinism_same_seed_same_draws():
    a = Simulator(seed=42).rng.stream("x").random(5)
    b = Simulator(seed=42).rng.stream("x").random(5)
    assert (a == b).all()


class TestRunUntilInfinity:
    """Regression: ``run(until=float("inf"))`` must not teleport the clock.

    ``float(x)`` returns ``x`` itself for an exact float, so a
    caller-supplied ``float("inf")`` is a *different object* from the
    module-level infinity sentinel; the old identity comparison treated
    it as a finite deadline and set the clock to infinity after the
    heap drained.
    """

    def test_caller_supplied_inf_leaves_clock_at_last_event(self):
        sim = Simulator()
        sleep_through(sim, [5.0])
        sim.run(until=float("inf"))
        assert sim.now == 5.0

    def test_caller_supplied_inf_on_empty_heap_keeps_clock(self):
        sim = Simulator(start_time=3.0)
        sim.run(until=float("inf"))
        assert sim.now == 3.0

    def test_finite_deadline_still_advances_clock_exactly(self):
        sim = Simulator()
        sim.run(until=7.5)
        assert sim.now == 7.5


class TestAdvanced:
    """``advanced_s``: simulated seconds ``run()`` moved the clock up to
    its last processed event, summed over calls; the ``sim.time_s``
    counter records the same advance per call."""

    def test_deadline_jump_not_counted(self):
        sim = Simulator()
        sleep_through(sim, [4.0, 6.0])
        with telemetry.session() as tel:
            sim.run(until=100.0)
            assert (sim.now, sim.advanced_s) == (100.0, 10.0)
            event_at(sim, 50.0)
            sim.run(until=200.0)
        assert (sim.now, sim.advanced_s) == (200.0, 60.0)
        assert tel.snapshot()["counters"]["sim.time_s"] == 60.0


class TestSameTimestampOrdering:
    """Events sharing a timestamp (a *cohort*) run in strict
    ``(priority, seq)`` order: same-time urgent events scheduled
    mid-cohort cut in, and cancellation of a later member holds."""

    def test_same_time_urgent_preempts_rest_of_cohort(self):
        sim = Simulator()
        order = []
        first = event_at(sim, 1.0)
        second = event_at(sim, 1.0)

        def first_cb(_ev):
            order.append("first")
            sim.call_at(1.0, lambda: order.append("urgent"))

        first.callbacks.append(first_cb)
        second.callbacks.append(lambda _ev: order.append("second"))
        sim.run()
        # Serial order: the urgent event outranks `second` at the same
        # timestamp, so it must run between the two cohort members.
        assert order == ["first", "urgent", "second"]

    def test_callback_cancels_later_cohort_member(self):
        sim = Simulator()
        order = []
        first = event_at(sim, 1.0)
        second = event_at(sim, 1.0)
        third = event_at(sim, 1.0)
        first.callbacks.append(lambda _ev: cancel(second))
        second.callbacks.append(lambda _ev: order.append("second"))
        third.callbacks.append(lambda _ev: order.append("third"))
        sim.run()
        assert order == ["third"]
        assert sim.events_processed == 2  # the cancelled one never counts


class TestHeapDepth:
    """The depth the telemetry histogram records: the heap as ``peek()``
    leaves it — cancelled entries on top pruned, the event about to run
    counted, cancelled entries deeper down still counted."""

    def test_depth_seen_by_each_event(self):
        sim = Simulator()
        first = event_at(sim, 1.0)
        dead_top = event_at(sim, 2.0)
        event_at(sim, 3.0)
        dead_deep = event_at(sim, 4.0)
        event_at(sim, 5.0)
        cancel(dead_deep)
        first.callbacks.append(lambda _ev: cancel(dead_top))
        with telemetry.session() as tel:
            sim.run()
        hist = tel.snapshot()["histograms"]["sim.heap.depth"]
        # t=1: all five entries.  t=3: the cancelled t=2 entry on top is
        # pruned, the dead t=4 one below still counts -> 3.  t=5: 1.
        assert (hist["count"], hist["sum"], hist["max"]) == (3, 9.0, 5.0)
        assert tel.snapshot()["gauges"]["sim.heap.peak"]["last"] == 5
        assert sim.events_processed == 3
