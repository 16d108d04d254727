"""The timer lane: re-armable plain-callback timers.

One :class:`Timer` object carries a whole periodic (or phased) activity
without per-firing event allocations — the contract the flat FSM job
lifecycle is built on.  The re-arming rule interacts with lazy heap
deletion, so the cancel/re-arm edges are pinned here.
"""

import pytest

from repro.errors import SimulationError
from repro.simkit import Simulator
from repro.simkit.events import Timer
from tests.simkit import event_at


def test_timer_fires_fn_at_delay():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now), label="t")
    timer.arm(5.0)
    sim.run()
    assert fired == [5.0]
    assert not timer.pending


def test_rearm_from_inside_firing_makes_a_periodic_loop():
    sim = Simulator()
    fired = []

    def fire():
        fired.append(sim.now)
        if sim.now < 30.0:
            timer.arm(10.0)

    timer = sim.timer(fire)
    timer.arm(10.0)
    sim.run()
    assert fired == [10.0, 20.0, 30.0]


def test_one_timer_object_is_reused_across_firings():
    sim = Simulator()
    seen = set()

    def fire():
        seen.add(id(timer))
        if sim.now < 5.0:
            timer.arm(1.0)

    timer = sim.timer(fire)
    timer.arm(1.0)
    sim.run()
    assert len(seen) == 1


def test_rearm_while_pending_is_rejected():
    sim = Simulator()
    timer = sim.timer(lambda: None, label="busy")
    timer.arm(1.0)
    with pytest.raises(SimulationError, match="re-armed"):
        timer.arm(2.0)


def test_rearm_after_cancel_is_rejected():
    # The cancelled firing still sits in the heap (lazy deletion); a
    # re-arm would race it.  The object must be abandoned instead.
    sim = Simulator()
    timer = sim.timer(lambda: None, label="dead")
    timer.arm(1.0)
    timer.cancel()
    with pytest.raises(SimulationError, match="re-armed"):
        timer.arm(2.0)


def test_cancelled_timer_never_runs():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    timer.arm(1.0)
    timer.cancel()
    sim.run()
    assert fired == []


def test_cancel_idle_timer_is_rejected():
    sim = Simulator()
    timer = sim.timer(lambda: None, label="idle")
    with pytest.raises(SimulationError, match="idle"):
        timer.cancel()


def test_negative_delay_is_rejected():
    sim = Simulator()
    timer = sim.timer(lambda: None)
    for delay in (-1.0, float("nan")):
        with pytest.raises(SimulationError, match="negative"):
            timer.arm(delay)


def test_timer_interleaves_deterministically_with_timeouts():
    sim = Simulator()
    order = []
    timer = sim.timer(lambda: order.append("timer"))
    event_at(sim, 1.0).callbacks.append(lambda _ev: order.append("event"))
    timer.arm(1.0)
    event_at(sim, 1.0).callbacks.append(lambda _ev: order.append("later event"))
    sim.run()
    # Same time, same NORMAL priority: heap insertion (seq) order
    # decides, whichever kind of entry each one is.
    assert order == ["event", "timer", "later event"]


def test_timer_factory_returns_timer_lane_object():
    sim = Simulator()
    assert isinstance(sim.timer(lambda: None), Timer)
