"""A small, deterministic discrete-event simulation kernel.

Simulation activities are plain callbacks: re-armable timers (the flat
*timer lane* the RM job lifecycle runs on), one-shot
:meth:`Simulator.call_at` calls, and :meth:`Simulator.call_each`
streams (a sorted run of calls on one heap entry: trace arrivals).
Determinism is guaranteed by a total ordering on the event heap —
``(time, priority, sequence)`` — and by routing all randomness through
named :class:`~repro.simkit.rng.RngRegistry` streams.

Public surface::

    Simulator        -- the event loop / clock
    Event            -- a one-shot heap entry carrying callbacks
    Timer            -- re-armable callback timer (the flat FSM lane)
    RngRegistry      -- named, seeded numpy Generator streams
    TimeSeries, Tally -- measurement utilities
"""

from repro.simkit.core import Simulator
from repro.simkit.events import Event, Timer
from repro.simkit.monitor import Tally, TimeSeries
from repro.simkit.rng import RngRegistry

__all__ = [
    "Simulator",
    "Event",
    "Timer",
    "RngRegistry",
    "TimeSeries",
    "Tally",
]
