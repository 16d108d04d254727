"""Primitive events for the discrete-event kernel.

An :class:`Event` is one heap entry carrying callbacks: it is *pending*
until the kernel pops it and runs them, then *processed* (its
``callbacks`` become ``None``).  :meth:`Simulator.schedule` queues an
event, :meth:`Simulator.call_at` builds and queues one around a plain
function, and :class:`Timer` is the re-armable form every periodic and
job-lifecycle activity runs on.
"""

from __future__ import annotations

import typing as t

from repro.errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkit.core import Simulator

# Heap priorities: lower fires first among events at the same time.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence at a point in simulated time.

    Args:
        sim: owning simulator.
    """

    __slots__ = ("sim", "callbacks", "cancelled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[t.Callable[[Event], None]] | None = []
        #: True once :meth:`Timer.cancel` marked the event dead; the heap entry
        #: is discarded lazily when it surfaces.
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.callbacks is None else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timer(Event):
    """A re-armable plain-callback timer: the kernel's flat *timer lane*.

    A one-shot event costs an allocation and a callbacks list per
    firing.  A ``Timer`` instead carries one zero-argument function and
    reuses a single event object and a single cached callbacks list
    across many firings — each :meth:`arm` pushes only the heap tuple.
    The table-driven FSM job lifecycle (:mod:`repro.rm.lifecycle`) runs
    entirely on this lane.

    Re-arming rule (a consequence of lazy cancellation): a timer may be
    re-armed only once its previous heap entry has been *consumed* —
    i.e. from inside its own firing, or before any arming.  A cancelled
    timer still has a stale entry sitting in the heap; re-arming it
    would reset nothing and the stale entry would fire the new arming
    early.  :meth:`arm` therefore rejects cancelled or still-pending
    timers — abandon the object and make a fresh one (the kill/resize
    paths that cancel are rare, so pooling only the common path wins).

    Only :attr:`fn` runs: a callback an outsider appended would persist
    across re-arms.
    """

    __slots__ = ("fn", "label", "_pending", "_cbs")

    def __init__(self, sim: "Simulator", fn: t.Callable[[], None], label: str = "timer") -> None:
        super().__init__(sim)
        self.fn = fn
        self.label = label
        self._pending = False
        self._cbs: list[t.Callable[[Event], None]] = [self._run]
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
