"""Concurrent-connection accounting.

Fig. 7e / 9c / 9f measure the *number of concurrent TCP sockets* held
by the master (and satellite) daemons.  The tracker is a plain counter
with a :class:`~repro.simkit.monitor.TimeSeries` behind it (two typed
``array("d")`` buffers, eight bytes a sample) so experiments can report
instantaneous, mean, and peak connection counts exactly like the
paper's once-a-second sampling.

:meth:`ConnectionTracker.pulse` is the per-RPC path (every user RPC,
heartbeat and relay pulses once).  It does no accounting at all: it
appends the pulse's time, count and close time to three typed buffers
(``array("d")``, ``array("q")``, ``array("d")``, 24 bytes a pulse) and
schedules no simulator event for the close.  Every read (``series``,
:meth:`~ConnectionTracker.peak`, :meth:`~ConnectionTracker.mean`) and
every :meth:`~ConnectionTracker.open` first *folds* the log into the
series, and so does a pulse that fills the log to :data:`FOLD_SIZE`.

The fold gives exactly the entries one simulator event per close would
have recorded:

* each pulse is an open ``(t, +n)``, in log order;
* its close ``(t + hold, -n)`` lands immediately before the first
  *later* pulse whose time is at or after the close time, or at the end
  of the fold when there is none and the close is due by the fold's
  time;
* closes that land in the same place are ordered by close time, then
  pulse order (the order their events would have fired in);
* a close not yet due carries over to the next fold, ahead of that
  fold's pulses, and a close at ``inf`` never comes due, so it is
  dropped.

Since the opens are in time order already, the fold sorts only the
closes: one stable ``argsort`` (of a nearly sorted column) puts them in
(close time, pulse) order, one ``searchsorted`` counts the opens ahead
of each, the merge is a masked write per column and one ``cumsum``
gives the running count: a few dozen numpy calls a fold, where a
min-heap of closes cost a push, a pop and four series appends every
pulse.
"""

from __future__ import annotations

import math
import typing as t
from array import array
from operator import index

import numpy as np

from repro.errors import NetworkError
from repro.simkit.monitor import TimeSeries

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkit.core import Simulator

#: pulses logged before a pulse folds the log into the series
FOLD_SIZE = 1024

_NO_CLOSES = np.empty(0)
_NO_COUNTS = np.empty(0, dtype=np.int64)


def _count(count: t.Any) -> int:
    count = index(count)
    if count < 0:
        raise NetworkError(f"cannot use a negative number of connections ({count})")
    return count


class ConnectionTracker:
    """Tracks concurrent connections held by one daemon."""

    def __init__(self, sim: "Simulator", owner: str = "") -> None:
        self.sim = sim
        self.owner = owner
        self._current = 0
        self._series = TimeSeries(f"{owner}.sockets")
        self.total_opened = 0
        #: the pulse log: time, count and close time of each pulse
        self._log_t = array("d")
        self._log_n = array("q")
        self._log_c = array("d")
        #: closes an earlier fold found not yet due, in (close time,
        #: pulse) order
        self._carry_c = _NO_CLOSES
        self._carry_n = _NO_COUNTS

    @property
    def series(self) -> TimeSeries:
        """The connection-count series up to now."""
        self._fold(self.sim.now)
        return self._series

    def _fold(self, now: float) -> None:
        """Turn the logged pulses, and the carried closes due by ``now``,
        into series entries (see the module docstring)."""
        log_t = self._log_t
        n = len(log_t)
        carry_c = self._carry_c
        if not n and not (len(carry_c) and carry_c[0] <= now):
            return
        opens = np.array(log_t)
        counts = np.array(self._log_n)
        closes = np.concatenate((carry_c, np.array(self._log_c)))
        self._log_t, self._log_n, self._log_c = array("d"), array("q"), array("d")
        # (close time, pulse order): the carry first, then the log, in
        # one stable sort, nearly sorted already
        order = np.argsort(closes, kind="stable")
        closes = closes[order]
        close_n = np.concatenate((self._carry_n, counts))[order]
        due = int(np.searchsorted(closes, now, side="right"))
        never = int(np.searchsorted(closes, math.inf))
        # copies: a view would keep the whole fold's buffer alive
        self._carry_c, self._carry_n = closes[due:never].copy(), close_n[due:never].copy()
        closes, close_n = closes[:due], close_n[:due]
        # opens before each close: those earlier than it, and at least
        # its own pulse and every one before (a zero hold); the carry
        # (order < len(carry_c)) has no pulse in this log
        slot = np.searchsorted(opens, closes, side="left")
        np.maximum(slot, order[:due] - (len(carry_c) - 1), out=slot)
        is_close = np.zeros(n + due, dtype=bool)
        is_close[slot + np.arange(due)] = True
        is_open = ~is_close
        times = np.empty(n + due)
        times[is_close] = closes
        times[is_open] = opens
        values = np.empty(n + due, dtype=np.int64)
        values[is_close] = -close_n
        values[is_open] = counts
        np.cumsum(values, out=values)
        values += self._current
        self._current = int(values[-1])
        series = self._series
        series._times.frombytes(memoryview(times).cast("B"))
        series._values.frombytes(memoryview(values.astype(np.float64)).cast("B"))

    def open(self, count: int = 1) -> None:
        """Open ``count`` connections held for the rest of the run (a
        daemon's persistent links)."""
        count = _count(count)
        now = self.sim.now
        self._fold(now)
        self._current += count
        self.total_opened += count
        self._series.record(now, self._current)

    def pulse(self, count: int, hold_s: float) -> None:
        """Open ``count`` connections now and close them after ``hold_s``.

        The common pattern for request/response traffic: the connection
        count spikes for the duration of the exchange.  The pulse is only
        logged; the series sees it at the next fold (module docstring).
        """
        count = index(count)  # ``_count`` inlined: this is the per-RPC path
        if count < 0:
            raise NetworkError(f"cannot use a negative number of connections ({count})")
        if not hold_s >= 0:
            raise NetworkError(f"cannot hold connections for {hold_s!r} s")
        now = self.sim.now
        log_t = self._log_t
        log_t.append(now)
        self._log_n.append(count)
        self._log_c.append(now + hold_s)
        self.total_opened += count
        if len(log_t) >= FOLD_SIZE:
            self._fold(now)

    # -- statistics ------------------------------------------------------
    def peak(self) -> float:
        return self.series.max()

    def mean(self) -> float:
        """Time-weighted average concurrent connections."""
        series = self.series
        return series.time_average(until=self.sim.now) if len(series) else 0.0
