"""Tests for connection tracking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.network import ConnectionTracker, sockets
from repro.simkit import Simulator, TimeSeries


def test_open_close_counts():
    sim = Simulator()
    tr = ConnectionTracker(sim, "master")
    tr.open(5)
    assert tr.series.last() == 5
    tr.pulse(2, 1.0)
    assert tr.series.last() == 7
    sim.run(until=2.0)
    assert tr.series.last() == 5  # the pulse closed its own two
    assert tr.total_opened == 7


def test_negative_counts_rejected():
    tr = ConnectionTracker(Simulator(), "x")
    with pytest.raises(NetworkError):
        tr.open(-1)
    with pytest.raises(NetworkError):
        tr.pulse(-1, 1.0)


def test_counts_must_be_integers():
    tr = ConnectionTracker(Simulator(), "x")
    for bad in (float("nan"), 2.5, "3", None):
        for call in (tr.open, lambda n: tr.pulse(n, 1.0)):
            with pytest.raises(TypeError):
                call(bad)
    tr.open(np.int64(2))
    tr.pulse(True, 1.0)
    assert tr.series.last() == 3
    assert len(tr.series) == 2


def test_pulse_closes_after_hold():
    sim = Simulator()
    tr = ConnectionTracker(sim, "master")
    tr.pulse(10, hold_s=5.0)
    assert tr.series.last() == 10
    sim.run(until=10.0)
    assert tr.series.last() == 0
    assert tr.peak() == 10


def test_mean_is_time_weighted():
    sim = Simulator()
    tr = ConnectionTracker(sim, "m")
    tr.open(4)  # 4 connections held for the whole [0, 10] window
    sim.run(until=10.0)
    assert tr.mean() == pytest.approx(4.0)


def test_empty_tracker_mean_zero():
    tr = ConnectionTracker(Simulator(), "m")
    assert tr.mean() == 0.0
    assert tr.peak() == 0.0


class TestLazyPulseCloses:
    """Pulses are logged and folded into the series when read, not
    simulator events; every observable must still match the
    eagerly-scheduled version."""

    def test_no_simulator_events_scheduled(self):
        sim = Simulator()
        tr = ConnectionTracker(sim, "m")
        for _ in range(100):
            tr.pulse(3, 5.0)
        sim.run()
        assert sim.events_processed == 0  # the whole point of lazy closes

    def test_series_records_true_close_instants(self):
        sim = Simulator()
        tr = ConnectionTracker(sim, "m")
        tr.pulse(2, 5.0)  # closes at t=5
        # Nothing touches the tracker until much later.
        sim.run(until=100.0)
        assert tr.series.last() == 0
        assert 5.0 in tr.series.times  # backdated to the real close time

    def test_tied_closes_apply_in_pulse_order(self):
        sim = Simulator()
        tr = ConnectionTracker(sim, "m")
        tr.pulse(1, 10.0)
        tr.pulse(4, 10.0)  # same close instant, later pulse
        sim.run(until=20.0)
        assert tr.series.last() == 0
        # Values step 5 -> 4 -> 0 at the close instant: the first
        # pulse's count came off first.
        closes = [v for t, v in zip(tr.series.times, tr.series.values) if t == 10.0]
        assert closes == [4, 0]

    def test_closes_beyond_horizon_never_apply(self):
        sim = Simulator()
        tr = ConnectionTracker(sim, "m")
        tr.pulse(2, 1e9)
        sim.run(until=10.0)
        assert tr.series.last() == 2  # the eager close event would not have fired

    def test_next_touch_drains_due_closes(self):
        # every read folds first, ``series`` included
        sim = Simulator()
        tr = ConnectionTracker(sim, "m")
        tr.pulse(2, 1.0)
        tr.pulse(3, 10.0)
        sim.run(until=5.0)
        assert len(tr._series) == 0  # a pulse is only logged
        assert tr.series.times.tolist() == [0.0, 0.0, 1.0]  # the read folds
        assert tr.series.values.tolist() == [2, 5, 3]
        assert tr.series.last() == 3
        tr.pulse(1, 1.0)
        assert len(tr._series) == 3  # logged, not yet in the series
        # the later close is not due: only the open lands
        assert tr.series.times.tolist() == [0.0, 0.0, 1.0, 5.0]
        assert tr.series.values.tolist() == [2, 5, 3, 4]

    def test_full_log_folds(self, monkeypatch):
        monkeypatch.setattr(sockets, "FOLD_SIZE", 3)
        sim = Simulator()
        tr = ConnectionTracker(sim, "m")
        tr.pulse(1, 0.5)
        sim.run(until=1.0)
        tr.pulse(2, 0.5)
        assert len(tr._series) == 0
        tr.pulse(4, 5.0)  # the third pulse fills the log: fold at t=1
        assert tr._series.times.tolist() == [0.0, 0.5, 1.0, 1.0]
        assert tr._series.values.tolist() == [1, 0, 2, 6]
        assert len(tr._log_t) == 0
        assert tr._carry_c.tolist() == [1.5, 6.0]  # not yet due

    def test_zero_hold_closes_after_its_own_open(self):
        sim = Simulator()
        tr = ConnectionTracker(sim, "m")
        tr.pulse(3, 0.0)
        tr.pulse(1, 0.0)
        assert tr.series.values.tolist() == [3, 0, 1, 0]

    def test_carried_closes_land_at_a_later_fold(self, monkeypatch):
        monkeypatch.setattr(sockets, "FOLD_SIZE", 1)
        sim = Simulator()
        tr = ConnectionTracker(sim, "m")
        tr.pulse(2, 3.0)  # folds at once; its close carries
        tr.pulse(5, 3.0)
        sim.run(until=3.0)
        tr.pulse(1, 0.0)  # both carried closes land before this open
        assert tr._series.times.tolist() == [0.0, 0.0, 3.0, 3.0, 3.0, 3.0]
        assert tr._series.values.tolist() == [2, 7, 5, 0, 1, 0]

    def test_log_stays_bounded(self):
        sim = Simulator()
        tr = ConnectionTracker(sim, "m")
        for i in range(10 * sockets.FOLD_SIZE):
            sim.run(until=i * 0.5)
            tr.pulse(2, 1.0)
        assert len(tr._log_t) < sockets.FOLD_SIZE
        assert len(tr._carry_c) <= 2  # only the closes not yet due
        assert tr.total_opened == 20 * sockets.FOLD_SIZE

    def test_negative_hold_rejected(self):
        tr = ConnectionTracker(Simulator(), "m")
        with pytest.raises(NetworkError):
            tr.pulse(1, -1.0)
        with pytest.raises(NetworkError):
            tr.pulse(-1, 1.0)
        assert len(tr.series) == 0

    def test_peak_and_mean_see_lazy_closes(self):
        sim = Simulator()
        tr = ConnectionTracker(sim, "m")
        tr.pulse(10, 2.0)
        sim.run(until=10.0)
        assert tr.peak() == 10
        assert tr.mean() < 10  # closes were applied at t=2, not t=10


class ListSeries:
    """The list-backed ``TimeSeries``: boxed floats, the same numpy
    reductions over them."""

    def __init__(self):
        self.times, self.values = [], []

    def record(self, time, value):
        if self.times and time < self.times[-1]:
            raise ValueError("went backwards")
        self.times.append(float(time))
        self.values.append(float(value))

    def mean(self):
        return float(np.mean(self.values)) if self.values else 0.0

    def max(self):
        return float(np.max(self.values)) if self.values else 0.0

    def time_average(self, until=None):
        if not self.times:
            return 0.0
        times, values = np.asarray(self.times), np.asarray(self.values)
        end = float(until) if until is not None else times[-1]
        widths = np.diff(np.append(times, end))
        total = end - times[0]
        if total <= 0:
            return float(values[-1])
        return float(np.dot(values, widths) / total)


class EagerTracker:
    """The tracker with one simulator event per pulse close."""

    def __init__(self, sim):
        self.sim = sim
        self.current = 0
        self.series = ListSeries()

    def open(self, count):
        self.current += count
        self.series.record(self.sim.now, self.current)

    def close(self, count):
        self.current -= count
        self.series.record(self.sim.now, self.current)

    def pulse(self, count, hold_s):
        self.open(count)
        self.sim.call_at(self.sim.now + hold_s, lambda: self.close(count))

    def peak(self):
        return self.series.max()

    def mean(self):
        return self.series.time_average(until=self.sim.now)


#: one step of a run: advance the clock by ``dt`` (0 ties it to the
#: last step), then act; holds of 0, of several horizons and of ``inf``
#: included
tracker_op = st.tuples(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]),
    st.sampled_from(["open", "pulse", "pulse", "read"]),
    st.integers(0, 6),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 100.0, float("inf")]),
)


def assert_same(lazy, eager):
    assert lazy.series.last() == eager.current
    assert lazy.series.times.tolist() == eager.series.times
    assert lazy.series.values.tolist() == eager.series.values
    assert lazy.peak() == eager.peak()
    assert lazy.mean() == eager.mean()


class TestLazyEqualsEager:
    """Every observable of the lazy tracker equals, bit for bit, a
    tracker whose pulse closes are simulator events, with folds forced
    mid-run (fold sizes 1, 2, 3) and at the default size."""

    @given(st.lists(tracker_op, max_size=60), st.sampled_from([0.0, 1.0, 4.0]))
    @settings(max_examples=200, deadline=None)
    def test_random_runs(self, ops, tail):
        self.check_run(ops, tail)

    @pytest.mark.parametrize("fold_size", [1, 2, 3])
    @given(ops=st.lists(tracker_op, max_size=60), tail=st.sampled_from([0.0, 1.0, 4.0]))
    @settings(max_examples=200, deadline=None)
    def test_random_runs_folding_mid_run(self, fold_size, ops, tail):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sockets, "FOLD_SIZE", fold_size)
            self.check_run(ops, tail)

    @staticmethod
    def check_run(ops, tail):
        lazy_sim, eager_sim = Simulator(), Simulator()
        lazy, eager = ConnectionTracker(lazy_sim, "m"), EagerTracker(eager_sim)
        now = 0.0
        for dt, op, count, hold in ops:
            now += dt
            lazy_sim.run(until=now)
            eager_sim.run(until=now)
            if op == "open":
                lazy.open(count)
                eager.open(count)
            elif op == "pulse":
                lazy.pulse(count, hold)
                eager.pulse(count, hold)
            else:
                assert_same(lazy, eager)
        # the horizon: closes due after it never apply
        lazy_sim.run(until=now + tail)
        eager_sim.run(until=now + tail)
        assert_same(lazy, eager)
        assert lazy_sim.events_processed == 0


class TestTimeSeriesEqualsLists:
    """``TimeSeries`` answers exactly like the list-backed series."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]),
                st.one_of(st.integers(-5, 50), st.floats(-1e3, 1e3)),
            ),
            max_size=40,
        ),
        st.sampled_from([0.0, 0.5, 7.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_summaries(self, samples, extra):
        ts, ref = TimeSeries("x"), ListSeries()
        now = 0.0
        for dt, value in samples:
            now += dt
            ts.record(now, value)
            ref.record(now, value)
        assert len(ts) == len(ref.times)
        for arr, want in ((ts.times, ref.times), (ts.values, ref.values)):
            assert arr.dtype == np.float64
            assert arr.tolist() == want
        assert ts.mean() == ref.mean()
        assert ts.max() == ref.max()
        assert ts.time_average() == ref.time_average()
        assert ts.time_average(until=now + extra) == ref.time_average(until=now + extra)

    def test_record_rejects_backwards_time_and_non_numbers(self):
        ts = TimeSeries("x")
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)
        for bad in (None, "x", object()):
            with pytest.raises((TypeError, ValueError)):
                TimeSeries("y").record(0.0, bad)
