"""A small, deterministic discrete-event simulation kernel.

Simulation activities are plain callbacks on re-armable timers (the
flat *timer lane* the RM job lifecycle runs on) or, in the
process-interaction style popularised by SimPy, Python generators that
``yield`` events and are resumed when the event fires.  Determinism is
guaranteed by a total ordering on the event heap — ``(time, priority,
sequence)`` — and by routing all randomness through named
:class:`~repro.simkit.rng.RngRegistry` streams.

Public surface::

    Simulator        -- the event loop / clock
    Event, Timeout   -- primitive events
    Timer            -- re-armable callback timer (the flat FSM lane)
    Process          -- a running generator activity
    RngRegistry      -- named, seeded numpy Generator streams
    TimeSeries, Counter, Tally -- measurement utilities
"""

from repro.simkit.core import Simulator
from repro.simkit.events import Event, Timeout, Timer
from repro.simkit.monitor import Counter, Tally, TimeSeries
from repro.simkit.process import Process
from repro.simkit.rng import RngRegistry

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Timer",
    "Process",
    "RngRegistry",
    "TimeSeries",
    "Counter",
    "Tally",
]
