"""Concurrent-connection accounting.

Fig. 7e / 9c / 9f measure the *number of concurrent TCP sockets* held
by the master (and satellite) daemons.  The tracker is a plain counter
with a :class:`~repro.simkit.monitor.TimeSeries` behind it (two typed
``array("d")`` buffers, eight bytes a sample) so experiments can report
instantaneous, mean, and peak connection counts exactly like the
paper's once-a-second sampling.

:meth:`ConnectionTracker.pulse` is the per-RPC path (every user RPC,
heartbeat and relay pulses once), so it does its own open: one check
for a due close, two appends to the series buffers and one
``heappush``, with no nested calls on the common path.

Pulse closes are *lazy*: a pulse does not schedule a simulator event
per close (the RM's periodic traffic would otherwise put tens of
thousands of close events on the heap per simulated day).  Instead the
close is pushed onto a min-heap of ``(close_time, seq, count)`` and
applied — with its original timestamp, in close-time order — the next
time the tracker is touched.  Every public read or write drains the
heap up to the current simulated time first, so observable state is
indistinguishable from eagerly-scheduled closes: series entries carry
the true close instants, ties between closes apply in pulse order
(exactly the event-sequence order the eager version used), and closes
beyond the simulation horizon are never applied (their events would
never have fired).
"""

from __future__ import annotations

import heapq
import typing as t

from repro.errors import NetworkError
from repro.simkit.monitor import TimeSeries

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkit.core import Simulator


class ConnectionTracker:
    """Tracks concurrent connections held by one daemon."""

    def __init__(self, sim: "Simulator", owner: str = "") -> None:
        self.sim = sim
        self.owner = owner
        self._current = 0
        self.series = TimeSeries(f"{owner}.sockets")
        self.total_opened = 0
        #: pending pulse closes: (close_time, pulse_seq, count)
        self._pending: list[tuple[float, int, int]] = []
        self._pulse_seq = 0

    @property
    def current(self) -> int:
        """Connections open *now* (applies any due pulse closes first)."""
        self._drain(self.sim.now)
        return self._current

    def _drain(self, now: float) -> None:
        pending = self._pending
        times, values = self.series._times, self.series._values
        current = self._current
        while pending and pending[0][0] <= now:
            close_at, _, count = heapq.heappop(pending)
            current -= count
            times.append(close_at)
            values.append(current)
        self._current = current

    def open(self, count: int = 1) -> None:
        """Open ``count`` connections."""
        if count < 0:
            raise NetworkError("cannot open a negative number of connections")
        self._drain(self.sim.now)
        self._current += count
        self.total_opened += count
        self.series.record(self.sim.now, self._current)

    def close(self, count: int = 1) -> None:
        """Close ``count`` connections."""
        if count < 0:
            raise NetworkError("cannot close a negative number of connections")
        self._drain(self.sim.now)
        if count > self._current:
            raise NetworkError(
                f"{self.owner}: closing {count} connections but only {self._current} open"
            )
        self._current -= count
        self.series.record(self.sim.now, self._current)

    def pulse(self, count: int, hold_s: float) -> None:
        """Open ``count`` connections now and close them after ``hold_s``.

        The common pattern for request/response traffic: the connection
        count spikes for the duration of the exchange.  The close costs
        no simulator event — see the module docstring.
        """
        if count < 0:
            raise NetworkError("cannot open a negative number of connections")
        if not hold_s >= 0:
            raise NetworkError(f"cannot hold connections for {hold_s!r} s")
        now = self.sim.now
        pending = self._pending
        if pending and pending[0][0] <= now:
            self._drain(now)
        current = self._current + count
        self._current = current
        self.total_opened += count
        series = self.series
        series._times.append(now)
        series._values.append(current)
        self._pulse_seq += 1
        heapq.heappush(pending, (now + hold_s, self._pulse_seq, count))

    # -- statistics ------------------------------------------------------
    def peak(self) -> float:
        self._drain(self.sim.now)
        return self.series.max()

    def mean(self) -> float:
        """Time-weighted average concurrent connections."""
        self._drain(self.sim.now)
        return self.series.time_average(until=self.sim.now) if len(self.series) else 0.0
