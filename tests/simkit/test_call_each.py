"""``Simulator.call_each`` processes exactly like a loop of ``call_at``.

The property test drives two simulators with the same random program:
one schedules each stream as one ``call_at`` per time, the other as
one ``call_each``; both callbacks draw the item's argument from an
iterator.  Around the streams sit other
urgent and normal events at colliding times, scheduled before, between
and after the streams, some cancelled up front and some by a stream
item; items schedule follow-ups at their own time; and the run is cut
into ``run(until=...)`` slices, with the second stream optionally
scheduled only after the first slice.  Both arms must process the same
``(time, priority, seq)`` stream and run the callbacks in the same
order.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simkit import Event, Simulator
from repro.simkit.events import PRIORITY_NORMAL, PRIORITY_URGENT
from tests.simkit import cancel


def each(sim, when, func, args):
    """One ``call_each`` stream calling ``func`` on each of ``args``."""
    items = iter(args)
    sim.call_each(when, lambda: func(next(items)))


def each_by_call_at(sim, when, func, args):
    """The reference: one ``call_at`` per time."""
    items = iter(args)
    for w in when:
        sim.call_at(w, lambda: func(next(items)))


time = st.integers(0, 6).map(float)
priority = st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL])
#: (time, priority, cancelled before the run)
other = st.tuples(time, priority, st.booleans())
stream = st.lists(time, max_size=8).map(sorted)
#: what a stream item does when it fires: (follow-up delay, follow-up
#: priority, index of an other event to cancel)
reaction = st.tuples(st.integers(0, 2), priority, st.integers(0, 11) | st.none())
cuts = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 6.0, 7.0]), max_size=4).map(sorted)


def play(each, program):
    """Run ``program`` with ``each`` scheduling the streams; returns the
    processed ``(time, priority, seq)`` entries, the callback log, the
    clock and the processed-event count."""
    before, first, between, second, after, reactions, slices, late = program
    sim = Simulator()
    trace, log, others = [], [], []
    sim.add_trace_hook(lambda *entry: trace.append(entry))

    def schedule_others(specs):
        for when, prio, cancelled in specs:
            tag = ("other", len(others))
            ev = Event(sim)
            ev.callbacks.append(lambda _ev, tag=tag: log.append(tag))
            sim.schedule(ev, prio, when - sim.now)
            others.append(ev)
            if cancelled:
                cancel(ev)

    def item(arg):
        log.append(arg)
        if not reactions:
            return
        k, i = arg
        delay, prio, victim = reactions[(3 * k + i) % len(reactions)]
        tag = ("follow-up", arg)
        if prio == PRIORITY_URGENT:
            sim.call_at(sim.now + delay, lambda: log.append(tag))
        else:
            ev = Event(sim)
            ev.callbacks.append(lambda _ev: log.append(tag))
            sim.schedule(ev, prio, delay)
        if victim is not None and victim < len(others):
            target = others[victim]
            if target.callbacks is not None and not target.cancelled:
                cancel(target)

    def schedule_stream(k, times, offset):
        when = [offset + w for w in times]
        each(sim, when, item, [(k, i) for i in range(len(when))])

    schedule_others(before)
    schedule_stream(0, first, 0.0)
    schedule_others(between)
    if not (late and slices):
        schedule_stream(1, second, 0.0)
    schedule_others(after)
    for n, until in enumerate(slices):
        sim.run(until=max(until, sim.now))
        if n == 0 and late:
            schedule_stream(1, second, sim.now)
    sim.run()
    return trace, log, sim.now, sim.events_processed


class TestEqualsCallAtLoop:
    @given(
        st.tuples(
            st.lists(other, max_size=5),
            stream,
            st.lists(other, max_size=4),
            stream,
            st.lists(other, max_size=4),
            st.lists(reaction, max_size=4),
            cuts,
            st.booleans(),
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_processed_stream_and_callback_order_match(self, program):
        assert play(each, program) == play(each_by_call_at, program)

    def test_equal_times_keep_item_order_behind_earlier_urgent_events(self):
        program = ([(1.0, PRIORITY_URGENT, False)], [1.0, 1.0, 1.0], [], [1.0], [], [], [], False)
        trace, log, _, _ = play(each, program)
        assert log == [("other", 0), (0, 0), (0, 1), (0, 2), (1, 0)]
        assert [seq for _, _, seq in trace] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("arm", [each, each_by_call_at], ids=["each", "loop"])
    def test_items_after_a_raising_one_stay_scheduled(self, arm):
        sim = Simulator()
        seen = []

        def func(arg):
            seen.append(arg)
            if arg == "b":
                raise RuntimeError("b")

        arm(sim, [1.0, 2.0, 3.0], func, "abc")
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()
        assert (seen, sim.now, sim.events_processed) == (list("abc"), 3.0, 2)

    def test_stream_holds_one_heap_entry(self):
        sim = Simulator()
        seen = []
        each(sim, [1.0, 2.0, 2.0, 9.0], seen.append, "abcd")
        assert len(sim._heap) == 1
        sim.run(until=2.0)
        assert (seen, len(sim._heap)) == (list("abc"), 1)
        sim.run()
        assert (seen, len(sim._heap), sim.now) == (list("abcd"), 0, 9.0)


class TestValidation:
    """A rejected stream schedules nothing and takes no sequence numbers."""

    @pytest.mark.parametrize(
        "when, match",
        [
            ([6.0, 8.0, 7.0], r"when\[2\]=7.0 does not follow when\[1\]=8.0"),
            ([6.0, math.nan, 7.0], r"when\[1\]=nan does not follow when\[0\]=6.0"),
            ([6.0, 7.0, math.nan], r"when\[2\]=nan does not follow"),
            ([math.nan, 2.0, 3.0], r"when\[1\]=2.0 does not follow when\[0\]=nan"),
            ([math.nan], r"call_at\(nan\) is in the past \(now=5.0\)"),
            ([4.0, 6.0, 7.0], r"call_at\(4.0\) is in the past \(now=5.0\)"),
        ],
        ids=["decreasing", "nan-inside", "nan-last", "nan-first", "nan-only", "past"],
    )
    def test_bad_times_raise_and_leave_the_heap_alone(self, when, match):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError, match=match):
            sim.call_each(when, print)
        self._assert_untouched(sim)

    def test_empty_input_is_a_no_op(self):
        sim = Simulator(start_time=5.0)
        sim.call_each([], print)
        self._assert_untouched(sim)

    def test_infinite_times_never_fire(self):
        sim = Simulator()
        seen = []
        each(sim, [1.0, math.inf], seen.append, "ab")
        sim.run()
        assert (seen, sim.now) == (["a"], 1.0)

    @staticmethod
    def _assert_untouched(sim):
        assert sim.peek() == math.inf
        trace = []
        sim.add_trace_hook(lambda *entry: trace.append(entry))
        sim.call_at(sim.now, lambda: None)
        sim.run()
        assert trace == [(sim.now, PRIORITY_URGENT, 0)]
