"""The simulator: event heap, clock, and run loop.

The heap is ordered by ``(time, priority, sequence)`` so that two runs
with the same inputs replay identically — the sequence counter breaks
ties deterministically in scheduling order.
"""

from __future__ import annotations

import heapq
import sys
import typing as t

from repro.errors import SimulationError
from repro.simkit.events import PRIORITY_NORMAL, PRIORITY_URGENT, Event, Timer
from repro.simkit.rng import RngRegistry
from repro.telemetry import facade as telemetry

_INFINITY = float("inf")
#: the latest time an event can run at: one scheduled at ``inf`` never
#: fires, so a run with no deadline ends when only such events remain
_LATEST = sys.float_info.max


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        seed: master seed for the attached :class:`RngRegistry`; every
            component draws randomness from named sub-streams so
            experiments replay bit-identically.
        start_time: initial clock value (seconds by convention).
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        # the FIFO tiebreaker among equal (time, priority) entries
        self._seq = 0
        self.rng = RngRegistry(seed)
        #: number of events processed so far (observability / debugging)
        self.events_processed = 0
        #: simulated seconds :meth:`run` advanced the clock up to the
        #: last event it processed, summed over calls (the final move
        #: to a float deadline is not counted).  After one run from a
        #: fresh simulator: the time of the last processed event.
        self.advanced_s = 0.0
        #: zero-arg callables invoked after every processed event; the
        #: chaos harness hooks invariant checks here.  Probes observe —
        #: they must not schedule events or mutate simulation state.
        self._probes: list[t.Callable[[], None]] = []
        #: ``(time, priority, seq)`` observers of the processed event
        #: stream; the oracle's golden-trace digest folds every entry
        #: into a hash, so two runs are byte-comparable event by event.
        self._trace_hooks: list[t.Callable[[float, int, int], None]] = []

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- event factories --------------------------------------------------
    def timer(self, fn: t.Callable[[], None], label: str = "timer") -> Timer:
        """Create an idle re-armable :class:`Timer` on this simulator's
        timer lane (arm it with :meth:`Timer.arm`)."""
        return Timer(self, fn, label=label)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, priority: int = PRIORITY_NORMAL, delay: float = 0.0) -> None:
        """Queue ``event`` to run its callbacks ``delay`` units from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self._now + delay, priority, seq, event))

    def peek(self) -> float:
        """Time of the next *live* scheduled event, or ``inf`` if none.

        Lazily discards cancelled entries that surfaced at the top of
        the heap (see :meth:`repro.simkit.events.Timer.cancel`).
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else _INFINITY

    # -- run loop ------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Run until the heap drains or a deadline passes.

        Args:
            until: ``None`` runs to exhaustion; a number runs until the
                clock reaches it (the clock is advanced to exactly that
                value).
        """
        deadline = _INFINITY
        if until is not None:
            deadline = float(until)
            if not deadline >= self._now:
                raise SimulationError(
                    f"run(until={deadline}) is in the past (now={self._now})"
                )
        tel = telemetry.active()
        start_s = self._now
        try:
            if tel is None:
                self._dispatch(deadline, _INFINITY)
            else:
                self._run_instrumented(deadline, tel)
        finally:
            advance_s = self._now - start_s
            self.advanced_s += advance_s
            if tel is not None:
                tel.count("sim.time_s", advance_s)
        # Value comparison, not identity: ``float(x)`` returns ``x``
        # itself for an exact float, so a caller-supplied
        # ``float("inf")`` is a *different object* from the module's
        # ``_INFINITY`` and an ``is not`` check would set the clock to
        # infinity here.
        if deadline != _INFINITY:
            self._now = deadline

    def _dispatch(
        self,
        deadline: float,
        limit: float,
        depth: t.Callable[[int], None] | None = None,
    ) -> int:
        """The event loop: every processed event goes through here.

        Processes live events in ``(time, priority, seq)`` order until
        ``limit`` events have run, the heap drains, or the next live
        event lies past ``deadline`` (an event at ``inf`` never runs).
        Cancelled entries are discarded as they surface (lazy deletion).
        Per event: clock, callbacks, count, trace hooks, probes.
        ``depth``, when given, observes the heap depth before each event
        exactly as :meth:`peek` leaves it: cancelled entries on top
        pruned, the event about to run counted.
        Returns the number of events processed.
        """
        if deadline > _LATEST:
            deadline = _LATEST
        heap = self._heap
        hooks = self._trace_hooks
        probes = self._probes
        done = 0
        while done < limit and heap:
            entry = heapq.heappop(heap)
            when, prio, seq, event = entry
            if event.cancelled:
                continue
            if when > deadline:
                heapq.heappush(heap, entry)
                break
            if depth is not None:
                depth(len(heap) + 1)
            if when < self._now:  # pragma: no cover - defensive, unreachable
                raise SimulationError("event heap went backwards in time")
            self._now = when
            callbacks, event.callbacks = event.callbacks, None
            assert callbacks is not None, "event processed twice"
            for callback in callbacks:
                callback(event)
            self.events_processed += 1
            done += 1
            for hook in hooks:
                hook(when, prio, seq)
            for probe in probes:
                probe()
        return done

    def _run_instrumented(self, deadline: float, tel: "telemetry.Telemetry") -> None:
        """:meth:`run` with event-loop telemetry measured around the loop.

        Only the heap-depth observer rides inside :meth:`_dispatch`;
        with no telemetry session active, :meth:`run` passes none.
        The ``sim.events`` count and the per-run heap peak are taken
        around the call; :meth:`run` counts the simulated advance.
        """
        start_events = self.events_processed
        events = tel.registry.counter("sim.events")
        depth_hist = tel.registry.histogram("sim.heap.depth")
        peak = 0

        def observe_depth(depth: int) -> None:
            nonlocal peak
            if depth > peak:
                peak = depth
            depth_hist.observe(depth)

        try:
            self._dispatch(deadline, _INFINITY, observe_depth)
        finally:
            events.inc(self.events_processed - start_events)
            tel.gauge("sim.heap.peak", peak)

    # -- probes ---------------------------------------------------------------
    def add_probe(self, probe: t.Callable[[], None]) -> None:
        """Run ``probe()`` after every processed event (in-line checking)."""
        self._probes.append(probe)

    def add_trace_hook(self, hook: t.Callable[[float, int, int], None]) -> None:
        """Observe every processed event as ``(time, priority, seq)``.

        The sequence number is the heap tiebreaker, so the hook sees the
        exact deterministic processing order — the seam the golden-trace
        digest (:mod:`repro.oracle.golden`) is built on.
        """
        self._trace_hooks.append(hook)

    # -- convenience ---------------------------------------------------------
    def call_at(self, when: float, func: t.Callable[[], None]) -> Event:
        """Invoke ``func()`` at absolute simulated time ``when``."""
        if not when >= self._now:
            raise SimulationError(f"call_at({when}) is in the past (now={self._now})")
        ev = Event(self)
        ev.callbacks = [lambda _ev: func()]
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, PRIORITY_URGENT, seq, ev))
        return ev

    def call_each(self, when: t.Sequence[float], func: t.Callable[[], None]) -> None:
        """Invoke ``func()`` once at each time in ``when`` (non-decreasing).

        Processes exactly like ``for w in when: call_at(w, func)``: the
        loop's block of sequence numbers is reserved now and firing
        ``i`` runs under its ``(when[i], PRIORITY_URGENT, seq + i)`` key.
        The heap holds one entry for the whole stream, not one per
        time: the event :meth:`call_at` makes for ``when[0]`` is
        re-pushed under the next reserved key each time it fires, before
        ``func`` runs, so whatever wraps the callbacks handed to
        :meth:`call_at` wraps ``func`` once for the whole stream.  That
        is exact because the keys are in order: firing ``i + 1`` is on
        the heap while firing ``i`` runs, so nothing keyed after it can
        be popped first.  A caller with per-firing data draws it from an
        iterator inside ``func``.  Nothing is scheduled when a time is
        in the past, out of order or NaN (:class:`SimulationError`).
        """
        when = tuple(when)
        n = len(when)
        for i in range(1, n):
            if not when[i - 1] <= when[i]:
                raise SimulationError(
                    f"call_each: when[{i}]={when[i]} does not follow when[{i - 1}]={when[i - 1]}"
                )
        if not n:
            return
        seq = self._seq
        ev = self.call_at(when[0], func)
        self._seq = seq + n
        callbacks = ev.callbacks
        assert callbacks is not None
        heap = self._heap
        k = 1

        def push_next(_ev: Event) -> None:
            nonlocal k
            if k < n:
                ev.callbacks = callbacks
                heapq.heappush(heap, (when[k], PRIORITY_URGENT, seq + k, ev))
                k += 1

        callbacks.insert(0, push_next)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6g} pending={len(self._heap)}>"
