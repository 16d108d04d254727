"""Tests for the TimeSeries and Tally measurement utilities."""

import numpy as np
import pytest

from repro.simkit import Tally, TimeSeries


class TestTimeSeries:
    def test_record_and_len(self):
        ts = TimeSeries("x")
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert len(ts) == 2

    def test_backwards_time_rejected(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)

    def test_equal_time_allowed(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        ts.record(5.0, 2.0)
        assert len(ts) == 2

    def test_last_and_mean(self):
        ts = TimeSeries()
        assert ts.last() == 0.0
        assert ts.mean() == 0.0
        ts.record(0.0, 10.0)
        ts.record(1.0, 20.0)
        assert ts.last() == 20.0
        assert ts.mean() == 15.0
        assert ts.max() == 20.0

    def test_time_average_step_function(self):
        ts = TimeSeries()
        ts.record(0.0, 0.0)
        ts.record(10.0, 100.0)
        # value 0 held for [0,10), value 100 held for zero width
        assert ts.time_average() == 0.0
        # holding 100 until t=20 gives (0*10 + 100*10)/20
        assert ts.time_average(until=20.0) == 50.0

    def test_time_average_until_before_last_raises(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        ts.record(10.0, 2.0)
        with pytest.raises(ValueError):
            ts.time_average(until=5.0)


class TestTally:
    def test_empty_tally(self):
        t = Tally()
        assert t.mean == 0.0
        assert t.max == 0.0

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(10, 3, size=500)
        t = Tally()
        for value in data:
            t.record(value)
        assert t.n == 500
        np.testing.assert_allclose(t.mean, data.mean(), rtol=1e-12)
        assert t.max == data.max()
