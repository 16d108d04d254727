"""Primitive events for the discrete-event kernel.

An :class:`Event` moves through three phases:

* *pending* — created but not yet scheduled to fire;
* *triggered* — given a value (or an exception) and queued on the
  simulator heap;
* *processed* — its callbacks have run.

Processes wait on events by ``yield``-ing them; the kernel registers the
process as a callback and resumes it with the event's value.
"""

from __future__ import annotations

import typing as t

from repro.errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkit.core import Simulator

# Heap priorities: lower fires first among events at the same time.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

_PENDING = object()


class Event:
    """A one-shot occurrence at a point in simulated time.

    Args:
        sim: owning simulator.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused", "cancelled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[t.Callable[[Event], None]] | None = []
        self._value: t.Any = _PENDING
        self._ok: bool | None = None
        #: True once a failure's exception has been consumed by a waiter.
        self.defused = False
        #: True once :meth:`cancel` marked the event dead; the heap entry
        #: is discarded lazily when it surfaces.
        self.cancelled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been given a value and scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> t.Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- cancellation --------------------------------------------------
    def cancel(self) -> None:
        """Mark a scheduled event dead without removing it from the heap.

        Heap removal would cost O(n) + re-heapify; instead the entry is
        skipped when it reaches the top of the heap (lazy deletion, the
        standard event-calendar technique).  A cancelled event never
        runs its callbacks, never counts as processed, and never appears
        in the golden event trace.  Cancelling an already-processed
        event is an error; a cancelled event cannot be (re-)triggered.
        """
        if self.processed:
            raise SimulationError("cannot cancel a processed event")
        self.cancelled = True

    # -- triggering ----------------------------------------------------
    def succeed(self, value: t.Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule the event to fire successfully with ``value``."""
        if self.cancelled:
            raise SimulationError("event was cancelled")
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.sim.schedule(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule the event to fire with an exception.

        A failed event that nobody waits on re-raises at the end of the
        run unless :attr:`defused` is set.
        """
        if self.cancelled:
            raise SimulationError("event was cancelled")
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.sim.schedule(self, priority)
        return self

    # -- snapshot identity ---------------------------------------------
    def describe(self) -> dict[str, t.Any]:
        """Structural identity for snapshot capture (:mod:`repro.snapshot`).

        Deliberately excludes object ids and payload values (which may
        hold arbitrary non-serialisable objects): two worlds built from
        the same config and driven to the same event boundary must
        produce equal ``describe()`` dicts for corresponding events.
        Detached waiters leave ``None`` dead slots behind (see
        :meth:`Process._resume`); only live callbacks are counted.
        """
        callbacks = self.callbacks
        return {
            "type": type(self).__name__,
            "triggered": self.triggered,
            "cancelled": self.cancelled,
            "defused": self.defused,
            "ok": self._ok,
            "callbacks": (
                None
                if callbacks is None
                else sum(1 for cb in callbacks if cb is not None)
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: t.Any = None) -> None:
        if not delay >= 0:
            raise SimulationError(f"negative or NaN timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim.schedule(self, PRIORITY_NORMAL, delay)

    def describe(self) -> dict[str, t.Any]:
        state = super().describe()
        state["delay"] = self.delay
        return state


class Timer(Event):
    """A re-armable plain-callback timer: the kernel's flat *timer lane*.

    A :class:`Timeout` + generator resume costs an event allocation, a
    callbacks list, and a ``send()`` per phase.  A ``Timer`` instead
    carries one zero-argument function and reuses a single event object
    and a single cached callbacks list across many firings — each
    :meth:`arm` pushes only the heap tuple.  The table-driven FSM job
    lifecycle (:mod:`repro.rm.lifecycle`) runs entirely on this lane.

    Re-arming rule (a consequence of lazy cancellation): a timer may be
    re-armed only once its previous heap entry has been *consumed* —
    i.e. from inside its own firing, or before any arming.  A cancelled
    timer still has a stale entry sitting in the heap; re-arming it
    would reset nothing and the stale entry would fire the new arming
    early.  :meth:`arm` therefore rejects cancelled or still-pending
    timers — abandon the object and make a fresh one (the kill/resize
    paths that cancel are rare, so pooling only the common path wins).

    Not a general-purpose Event: ``run(until=timer)`` and waiting on a
    timer from a process are unsupported (callbacks registered by
    outsiders would persist across re-arms).
    """

    __slots__ = ("fn", "label", "_pending", "_cbs")

    def __init__(self, sim: "Simulator", fn: t.Callable[[], None], label: str = "timer") -> None:
        super().__init__(sim)
        self.fn = fn
        self.label = label
        self._ok = True
        self._value = None
        self._pending = False
        self._cbs: list[t.Callable[[Event], None] | None] = [self._run]
        self.callbacks = None  # idle until armed

    @property
    def pending(self) -> bool:
        """True while an armed firing sits in the heap (or was cancelled)."""
        return self._pending

    def arm(self, delay: float, priority: int = PRIORITY_NORMAL) -> "Timer":
        """Schedule :attr:`fn` to run ``delay`` units from now."""
        if self._pending or self.cancelled:
            raise SimulationError(
                f"timer {self.label!r} cannot be re-armed while pending/cancelled"
            )
        if not delay >= 0:
            raise SimulationError(f"negative or NaN timer delay: {delay!r}")
        self._pending = True
        self.callbacks = self._cbs
        self.sim.schedule(self, priority, delay)
        return self

    def cancel(self) -> None:
        """Mark the pending firing dead (lazy heap deletion, see Event)."""
        if not self._pending:
            raise SimulationError(f"cannot cancel idle timer {self.label!r}")
        self.cancelled = True

    def _run(self, _event: Event) -> None:
        self._pending = False
        self.fn()

    def describe(self) -> dict[str, t.Any]:
        state = super().describe()
        state["label"] = self.label
        return state
