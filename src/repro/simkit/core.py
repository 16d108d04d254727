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
from repro.simkit.events import PRIORITY_NORMAL, PRIORITY_URGENT, Event, Timeout, Timer
from repro.simkit.process import Process
from repro.simkit.rng import RngRegistry
from repro.telemetry import facade as telemetry

_INFINITY = float("inf")
#: the latest time an event can run at: one scheduled at ``inf`` never
#: fires, so a run with no deadline ends when only such events remain
_LATEST = sys.float_info.max


class _StopSimulation(Exception):
    """Internal control-flow signal used by ``run(until=event)``."""

    def __init__(self, value: t.Any) -> None:
        super().__init__()
        self.value = value


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
        # A plain int rather than itertools.count so snapshots can
        # capture and compare the tiebreaker state.
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
    def event(self) -> Event:
        """Create a fresh untriggered event owned by this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: t.Any = None) -> Timeout:
        """Create an event that fires ``delay`` units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: t.Generator[Event, t.Any, t.Any], name: str = "") -> Process:
        """Start running ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def timer(self, fn: t.Callable[[], None], label: str = "timer") -> Timer:
        """Create an idle re-armable :class:`Timer` on this simulator's
        timer lane (arm it with :meth:`Timer.arm`)."""
        return Timer(self, fn, label=label)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, priority: int = PRIORITY_NORMAL, delay: float = 0.0) -> None:
        """Queue a triggered event to fire ``delay`` units from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self._now + delay, priority, seq, event))

    def peek(self) -> float:
        """Time of the next *live* scheduled event, or ``inf`` if none.

        Lazily discards cancelled entries that surfaced at the top of
        the heap (see :meth:`repro.simkit.events.Event.cancel`).
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else _INFINITY

    def step(self) -> None:
        """Process exactly one live event; raises if the heap is empty.

        Cancelled entries surfacing at the top are dropped silently:
        they do not advance the clock, run callbacks, count toward
        ``events_processed``, or reach trace hooks/probes.
        """
        if not self._dispatch(_INFINITY, 1):
            raise SimulationError("step() on an empty event heap")

    # -- run loop ------------------------------------------------------------
    def run(self, until: float | Event | None = None) -> t.Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        Args:
            until: ``None`` runs to exhaustion; a number runs until the
                clock reaches it (the clock is advanced to exactly that
                value); an :class:`Event` runs until it fires and returns
                its value.
        """
        deadline = _INFINITY
        if until is None:
            pass
        elif isinstance(until, Event):
            if until.processed:
                return until.value
            assert until.callbacks is not None
            until.callbacks.append(self._stop_on)
        else:
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
        except _StopSimulation as stop:
            return stop.value
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
        if isinstance(until, Event) and not until.triggered:
            raise SimulationError("run(until=event): event heap drained before event fired")
        return None

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
        Per event: clock, callbacks, count, trace hooks, probes — then
        an undefused failure raises, with history already agreeing that
        the event was processed.  ``depth``, when given, observes the
        heap depth before each event exactly as :meth:`peek` leaves it:
        cancelled entries on top pruned, the event about to run counted.
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
                if callback is not None:  # skip dead slots left by detached waiters
                    callback(event)
            self.events_processed += 1
            done += 1
            for hook in hooks:
                hook(when, prio, seq)
            for probe in probes:
                probe()
            if not event.ok and not event.defused:
                raise t.cast(BaseException, event.value)
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

    # -- snapshot seams ------------------------------------------------------
    def run_until_count(self, count: int, deadline: float = _INFINITY) -> int:
        """Process live events until ``events_processed`` reaches ``count``.

        The replay half of cold snapshot restore
        (:mod:`repro.snapshot`): a rebuilt world replays exactly the
        events the captured world had processed, pausing at the same
        event boundary.  Stops early if the heap drains or the next
        live event lies beyond ``deadline``; never advances the clock to
        the deadline (event-boundary semantics).  Returns the number of
        events processed by this call.
        """
        if count < self.events_processed:
            raise SimulationError(
                f"run_until_count({count}) is in the past "
                f"(events_processed={self.events_processed})"
            )
        return self._dispatch(deadline, count - self.events_processed)

    def restore_clock(self, when: float) -> None:
        """Advance the clock to ``when`` without processing events.

        :meth:`run` with a float deadline leaves the clock *at* the
        deadline even when the last event fired earlier; a replay that
        pauses on an event boundary needs this seam to reproduce that
        final clock value exactly.  Moving backwards is an error.
        """
        when = float(when)
        if not when >= self._now:
            raise SimulationError(
                f"restore_clock({when}) would move time backwards (now={self._now})"
            )
        self._now = when

    def snapshot_state(self) -> dict[str, t.Any]:
        """Structural kernel state for snapshot capture/verification.

        Purely observational: the heap is reported as the sorted list of
        *live* entries (cancelled events are lazily deleted, so their
        physical heap position is timing-dependent and must not leak
        into the captured state).  Event objects are reduced to
        :meth:`repro.simkit.events.Event.describe` dicts — identity that
        is stable across a rebuild-and-replay of the same world.
        """
        live = sorted(
            (entry for entry in self._heap if not entry[3].cancelled),
            key=lambda entry: entry[:3],
        )
        return {
            "now": self._now,
            "seq": self._seq,
            "events_processed": self.events_processed,
            "heap": [
                [when, prio, seq, event.describe()] for when, prio, seq, event in live
            ],
        }

    @staticmethod
    def _stop_on(event: Event) -> None:
        if not event.ok:
            event.defused = True
            raise t.cast(BaseException, event.value)
        raise _StopSimulation(event.value)

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

    def remove_trace_hook(self, hook: t.Callable[[float, int, int], None]) -> None:
        """Detach a hook previously added with :meth:`add_trace_hook`."""
        self._trace_hooks.remove(hook)

    # -- convenience ---------------------------------------------------------
    def call_at(self, when: float, func: t.Callable[[], None]) -> Event:
        """Invoke ``func()`` at absolute simulated time ``when``."""
        if not when >= self._now:
            raise SimulationError(f"call_at({when}) is in the past (now={self._now})")
        ev = self.event()
        ev._ok = True  # noqa: SLF001 - kernel-internal fast path
        ev._value = None  # noqa: SLF001
        assert ev.callbacks is not None
        ev.callbacks.append(lambda _ev: func())
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, PRIORITY_URGENT, seq, ev))
        return ev

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6g} pending={len(self._heap)}>"
