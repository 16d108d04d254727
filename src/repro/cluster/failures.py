"""Failure injection for the cluster substrate.

The paper's production logs motivate three kinds of events, all of which
this module reproduces:

* *point failures* — independent single-node faults (power, network,
  memory), modelled with an exponential per-node MTBF;
* *burst failures* — correlated multi-node events (a switch or a
  chassis dies), modelled as a Poisson process whose events take out a
  contiguous block of nodes;
* *maintenance* — operator-scheduled mass removals, like the >600-node
  hardware-replacement event the paper reports on day six of the
  FP-Tree placement experiment.

When the injector decides a node will fail it informs the
:class:`~repro.cluster.monitoring.HealthMonitor` *before* the failure
takes effect, which is the hook the FP-Tree's alert-driven failure
prediction relies on (Section IV-C of the paper).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from repro.cluster.node import NodeState
from repro.errors import ConfigurationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.spec import Cluster
    from repro.simkit.core import Simulator

HOUR = 3600.0
DAY = 24 * HOUR

#: Failure/recovery callback: ``(kind, node_ids, time)``.
FailureListener = t.Callable[[str, t.Sequence[int], float], None]


@dataclass(frozen=True)
class FailureModel:
    """Stochastic failure behaviour of a cluster.

    Defaults are calibrated so a 4K-node cluster sees on the order of a
    few single-node failures per day with <2 % of nodes down at any
    time, matching the paper's production observations.

    Args:
        mtbf_node_hours: per-node mean time between point failures.
        repair_hours: mean repair/reboot time for a point failure.
        burst_per_day: expected correlated multi-node events per day.
        burst_size_mean: mean nodes taken out by one burst.
        lead_time_s: mean interval between "decision" (when precursor
            symptoms start, i.e. when the monitor may alert) and the
            failure itself.
        enabled: master switch; disabled models inject nothing.
    """

    mtbf_node_hours: float = 20_000.0
    repair_hours: float = 4.0
    burst_per_day: float = 0.1
    burst_size_mean: float = 32.0
    lead_time_s: float = 600.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.mtbf_node_hours <= 0 or self.repair_hours <= 0:
            raise ConfigurationError("MTBF and repair time must be positive")
        if self.burst_per_day < 0 or self.burst_size_mean < 1:
            raise ConfigurationError("invalid burst parameters")
        if self.lead_time_s < 0:
            raise ConfigurationError("lead time cannot be negative")

    @classmethod
    def disabled(cls) -> "FailureModel":
        """A model that never injects failures (deterministic runs)."""
        return cls(enabled=False)


@dataclass
class FailureEvent:
    """Log record of one injected failure event."""

    time: float
    kind: str  # "point" | "burst" | "maintenance"
    node_ids: tuple[int, ...]
    recover_at: float


class FailureInjector:
    """Drives node failures on a cluster as simulation processes.

    The injector is *not* started automatically: call :meth:`start`
    once the simulator owns all components, so short deterministic
    tests pay nothing for it.
    """

    def __init__(self, sim: "Simulator", cluster: "Cluster", model: FailureModel) -> None:
        self.sim = sim
        self.cluster = cluster
        self.model = model
        self.events: list[FailureEvent] = []
        self._listeners: list[FailureListener] = []
        self._started = False
        #: node id -> end of its latest maintenance window; repairs of
        #: earlier faults must not resurrect a node inside a window.
        self._maint_until: dict[int, float] = {}

    def subscribe(self, listener: FailureListener) -> None:
        """Register a callback invoked on every failure and recovery."""
        self._listeners.append(listener)

    def _notify(self, kind: str, node_ids: t.Sequence[int]) -> None:
        for fn in self._listeners:
            fn(kind, node_ids, self.sim.now)

    # -- timers ----------------------------------------------------------
    def start(self) -> None:
        """Arm the point-failure and burst timers (idempotent).

        Each loop is one re-armed :class:`~repro.simkit.events.Timer`
        whose handler runs the body first and draws the next interval
        afterwards — the same per-stream draw order as the generator
        loops these replaced (which drew before each ``yield``).
        """
        if self._started or not self.model.enabled:
            return
        self._started = True
        self._start_point_timer()
        if self.model.burst_per_day > 0:
            self._start_burst_timer()

    def _start_point_timer(self) -> None:
        """Aggregate Poisson process over all nodes (rate n / MTBF)."""
        rng = self.sim.rng.stream("failures.point")
        n = self.cluster.n_nodes
        rate_per_s = n / (self.model.mtbf_node_hours * HOUR)

        def fire() -> None:
            nid = int(rng.integers(n))
            if self.cluster.is_responsive(nid):  # already down: skip this draw
                lead = rng.exponential(self.model.lead_time_s)
                repair = rng.exponential(self.model.repair_hours * HOUR)
                self._schedule_failure("point", [nid], lead, repair)
            timer.arm(rng.exponential(1.0 / rate_per_s))

        timer = self.sim.timer(fire, label="failures.point")
        timer.arm(rng.exponential(1.0 / rate_per_s))

    def _start_burst_timer(self) -> None:
        """Correlated failures of a contiguous block of nodes."""
        rng = self.sim.rng.stream("failures.burst")
        n = self.cluster.n_nodes
        rate_per_s = self.model.burst_per_day / DAY

        def fire() -> None:
            size = max(2, int(rng.poisson(self.model.burst_size_mean)))
            start = int(rng.integers(max(1, n - size)))
            ids = [i for i in range(start, min(start + size, n))]
            lead = rng.exponential(self.model.lead_time_s)
            repair = rng.exponential(self.model.repair_hours * HOUR)
            self._schedule_failure("burst", ids, lead, repair)
            timer.arm(rng.exponential(1.0 / rate_per_s))

        timer = self.sim.timer(fire, label="failures.burst")
        timer.arm(rng.exponential(1.0 / rate_per_s))

    def _schedule_failure(
        self, kind: str, node_ids: list[int], lead: float, repair: float
    ) -> None:
        """Announce to the monitor now; flip nodes DOWN after ``lead``."""
        fail_at = self.sim.now + lead
        recover_at = fail_at + repair
        self.cluster.monitor.on_failure_scheduled(node_ids, at=fail_at)
        self.sim.call_at(fail_at, lambda: self._apply(kind, node_ids, recover_at))

    def _apply(self, kind: str, node_ids: list[int], recover_at: float) -> None:
        cluster = self.cluster
        # an id listed twice fails once
        actually_failed = [nid for nid in dict.fromkeys(node_ids) if cluster.is_responsive(nid)]
        if not actually_failed:
            return
        cluster.fail_nodes(actually_failed)
        self.events.append(
            FailureEvent(self.sim.now, kind, tuple(actually_failed), recover_at)
        )
        self._notify(kind, actually_failed)
        self.sim.call_at(recover_at, lambda: self._recover(actually_failed))

    def _recover(self, node_ids: list[int]) -> None:
        now = self.sim.now
        recovered = []
        deferred: dict[float, list[int]] = {}
        for nid in node_ids:
            until = self._maint_until.get(nid, 0.0)
            if until > now:
                # The node sits inside a maintenance window: repairing an
                # earlier fault must not resurrect it early.  Retry when
                # the window closes.
                deferred.setdefault(until, []).append(nid)
                continue
            if until:
                del self._maint_until[nid]
            if self.cluster.state_of(nid) is NodeState.DOWN:
                recovered.append(nid)
        for until, ids in sorted(deferred.items()):
            self.sim.call_at(until, lambda ids=ids: self._recover(ids))
        if recovered:
            self.cluster.recover_nodes(recovered)
            self._notify("recover", recovered)

    # -- deterministic scenarios ------------------------------------------
    def schedule_fault(
        self, kind: str, at: float, node_ids: t.Sequence[int], duration: float
    ) -> None:
        """Deterministically inject one named fault event.

        The chaos campaign runner composes whole failure schedules out
        of these; the monitor is informed now (strictly before the fault
        lands), exactly like the stochastic processes do.
        """
        ids = [int(n) for n in node_ids]
        if not ids:
            raise ConfigurationError(f"{kind} event needs at least one node")
        if at < self.sim.now:
            raise ConfigurationError(f"{kind} event at {at} is in the past")
        if duration <= 0:
            raise ConfigurationError(f"{kind} event needs a positive duration")
        if kind == "maintenance":
            end = at + duration
            for nid in ids:
                if end > self._maint_until.get(nid, 0.0):
                    self._maint_until[nid] = end
        self.cluster.monitor.on_failure_scheduled(ids, at=at)
        self.sim.call_at(at, lambda: self._apply(kind, ids, at + duration))

    def schedule_maintenance(
        self, at: float, node_ids: t.Sequence[int], duration: float
    ) -> None:
        """Operator-style mass removal (the paper's day-6 600-node event)."""
        self.schedule_fault("maintenance", at, node_ids, duration)

    # -- statistics ----------------------------------------------------------
    def failures_injected(self) -> int:
        """Total node-failures across all events so far."""
        return sum(len(ev.node_ids) for ev in self.events)
