"""Measurement utilities: time series and tallies.

The paper's figures are mostly *resource-usage-over-time* curves sampled
once per second (Fig. 7, Fig. 9) or summary statistics over a run
(Tables V, VI, VIII).  These classes are the in-simulation recorders
that produce them.
"""

from __future__ import annotations

import math
from array import array

import numpy as np


class TimeSeries:
    """An append-only ``(time, value)`` series with summary helpers.

    Samples live in two typed ``array("d")`` buffers: eight bytes a
    sample, no boxed float per entry.  The simulator's own recorders
    append to ``_times`` and ``_values`` directly, in time order by
    construction: :class:`~repro.rm.accounting.DaemonAccounting` one
    sample a call, :class:`~repro.network.sockets.ConnectionTracker` a
    whole fold of its pulse log at once.  Everything else goes through
    :meth:`record`.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times = array("d")
        self._values = array("d")

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time series {self.name!r} went backwards: "
                f"{time} < {self._times[-1]}"
            )
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        """The sample times (a copy: the buffer keeps growing)."""
        return np.array(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """The sampled values (a copy: the buffer keeps growing)."""
        return np.array(self._values, dtype=float)

    def last(self) -> float:
        """Most recent value (0.0 when empty)."""
        return self._values[-1] if self._values else 0.0

    def mean(self) -> float:
        """Plain mean of the sampled values (0.0 when empty)."""
        return float(np.mean(self._values)) if self._values else 0.0

    def max(self) -> float:
        return float(np.max(self._values)) if self._values else 0.0

    def time_average(self, until: float | None = None) -> float:
        """Step-function time-weighted average of the series.

        Each value is held until the next sample; the final value is held
        until ``until`` (defaults to the last sample time, which then
        contributes zero width).
        """
        if not self._times:
            return 0.0
        times = self.times
        values = self.values
        end = float(until) if until is not None else times[-1]
        if end < times[-1]:
            raise ValueError("time_average until= precedes last sample")
        widths = np.diff(np.append(times, end))
        total = end - times[0]
        if total <= 0:
            return float(values[-1])
        return float(np.dot(values, widths) / total)


class Tally:
    """Streaming mean and maximum without storing samples."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.n = 0
        self._mean = 0.0
        self._max = -math.inf

    def record(self, value: float) -> None:
        value = float(value)
        self.n += 1
        self._mean += (value - self._mean) / self.n
        self._max = max(self._max, value)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def max(self) -> float:
        return self._max if self.n else 0.0
