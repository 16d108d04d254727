"""Satellite nodes: state machine, pool, Eq. 1 allocation, failover.

Satellite semantics from Section III:

* satellites are stateless bidirectional buffers between master and
  slaves; they relay broadcasts and aggregate responses;
* the master tracks each satellite through the state machine of Fig. 2
  / Table II (UNKNOWN, RUNNING, BUSY, FAULT, DOWN driven by BT-*/HB-*
  events, SHUTDOWN, and a 20-minute FAULT timeout), plus an
  administrator REVIVE that returns a DOWN satellite to UNKNOWN;
* only RUNNING satellites receive broadcast tasks;
* Eq. 1 picks how many satellites relay a broadcast to ``s`` slaves::

      N = 1          if s <= w
          ceil(s/w)  if w < s < m·w
          m          if s >= m·w

* a satellite failing mid-task is retried on the next satellite in
  round-robin order; after ``max_reallocations`` (2) the master takes
  the task over itself.
"""

from __future__ import annotations

import enum
import typing as t
from dataclasses import dataclass

import numpy as np

from repro.cluster.node import UP_CODE
from repro.cluster.spec import Cluster
from repro.errors import ConfigurationError
from repro.rm.accounting import DaemonAccounting
from repro.rm.profiles import RMProfile
from repro.simkit.core import Simulator
from repro.telemetry import facade as telemetry

#: FAULT -> DOWN after this long without recovering (Table II: >= 20 min).
FAULT_TIMEOUT_S = 20 * 60.0


class SatelliteState(enum.Enum):
    UNKNOWN = "unknown"
    RUNNING = "running"
    BUSY = "busy"
    FAULT = "fault"
    DOWN = "down"


class SatelliteEvent(enum.Enum):
    BT_START = "bt-start"  # a broadcast task was assigned
    BT_SUCCESS = "bt-success"
    BT_FAILURE = "bt-failure"
    HB_SUCCESS = "hb-success"
    HB_FAILURE = "hb-failure"
    SHUTDOWN = "shutdown"
    TIMEOUT = "timeout"
    REVIVE = "revive"  # administrator brings a DOWN satellite back


#: Observer of one state-machine step: ``(daemon, old, event, new)``.
#: The chaos invariant layer subscribes here to audit every transition.
TransitionObserver = t.Callable[
    ["SatelliteDaemon", "SatelliteState", "SatelliteEvent", "SatelliteState"], None
]

#: (state, event) -> next state.  Unlisted pairs keep the state.
_TRANSITIONS: dict[tuple[SatelliteState, SatelliteEvent], SatelliteState] = {
    (SatelliteState.UNKNOWN, SatelliteEvent.HB_SUCCESS): SatelliteState.RUNNING,
    (SatelliteState.UNKNOWN, SatelliteEvent.HB_FAILURE): SatelliteState.FAULT,
    (SatelliteState.RUNNING, SatelliteEvent.BT_START): SatelliteState.BUSY,
    (SatelliteState.RUNNING, SatelliteEvent.HB_FAILURE): SatelliteState.FAULT,
    (SatelliteState.BUSY, SatelliteEvent.BT_SUCCESS): SatelliteState.RUNNING,
    (SatelliteState.BUSY, SatelliteEvent.BT_FAILURE): SatelliteState.FAULT,
    (SatelliteState.BUSY, SatelliteEvent.HB_FAILURE): SatelliteState.FAULT,
    (SatelliteState.FAULT, SatelliteEvent.HB_SUCCESS): SatelliteState.RUNNING,
    (SatelliteState.FAULT, SatelliteEvent.TIMEOUT): SatelliteState.DOWN,
    (SatelliteState.DOWN, SatelliteEvent.REVIVE): SatelliteState.UNKNOWN,
}


@dataclass
class SatelliteStats:
    """Operational counters behind Table VI."""

    tasks_received: int = 0
    nodes_in_tasks: int = 0
    tasks_failed: int = 0

    @property
    def avg_nodes_per_task(self) -> float:
        return self.nodes_in_tasks / self.tasks_received if self.tasks_received else 0.0


class SatelliteDaemon:
    """One satellite: node id + state machine + accounting."""

    def __init__(self, sim: Simulator, cluster: Cluster, node_id: int, profile: RMProfile) -> None:
        self.sim = sim
        self.cluster = cluster
        self.node_id = node_id
        self.name = cluster.name_of(node_id)
        self.state = SatelliteState.UNKNOWN
        self.acct = DaemonAccounting(sim, profile, f"satellite.{self.name}")
        self.stats = SatelliteStats()
        self._fault_since: float | None = None
        #: transition audit hooks (empty outside chaos/invariant runs)
        self.transition_observers: list[TransitionObserver] = []

    @property
    def fault_since(self) -> float | None:
        """When the current FAULT spell began (None outside FAULT)."""
        return self._fault_since

    def handle(self, event: SatelliteEvent) -> SatelliteState:
        """Apply one event; returns the new state."""
        old = self.state
        if event is SatelliteEvent.SHUTDOWN:
            new = SatelliteState.DOWN
            self._fault_since = None
        else:
            new = _TRANSITIONS.get((old, event), old)
            if new is SatelliteState.FAULT and old is not SatelliteState.FAULT:
                self._fault_since = self.sim.now
            elif new is not SatelliteState.FAULT:
                self._fault_since = None
        self.state = new
        for observer in self.transition_observers:
            observer(self, old, event, new)
        return new

    def heartbeat(self) -> None:
        """Master-driven health check: emits HB events from liveness and
        escalates a long FAULT to DOWN (Table II's TIMEOUT)."""
        self._beat(self.cluster.is_responsive(self.node_id))

    def _beat(self, responsive: bool) -> None:
        """:meth:`heartbeat`, given the node's liveness."""
        if self.state is SatelliteState.DOWN:
            return
        self.handle(SatelliteEvent.HB_SUCCESS if responsive else SatelliteEvent.HB_FAILURE)
        if (
            self.state is SatelliteState.FAULT
            and self._fault_since is not None
            and self.sim.now - self._fault_since >= FAULT_TIMEOUT_S
        ):
            self.handle(SatelliteEvent.TIMEOUT)

    def revive(self) -> None:
        """Administrator intervention for a DOWN satellite.

        The node recovers through the cluster, so liveness caches (the
        fabric's down set, the heartbeat gate) see it, and the DOWN ->
        UNKNOWN step reaches the transition observers like any other;
        the next heartbeat rediscovers the satellite.
        """
        self.cluster.recover_nodes([self.node_id])
        self.handle(SatelliteEvent.REVIVE)


class SatellitePool:
    """The master's view of all satellites: allocation and failover."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        profile: RMProfile,
        width: int | None = None,
        max_reallocations: int = 2,
    ) -> None:
        if not cluster.satellite_ids:
            raise ConfigurationError("ESLURM needs at least one satellite node")
        self.sim = sim
        self.cluster = cluster
        self.width = width or profile.tree_width
        self.max_reallocations = max_reallocations
        self.daemons = [
            SatelliteDaemon(sim, cluster, nid, profile) for nid in cluster.satellite_ids
        ]
        self._node_ids = np.array(cluster.satellite_ids, dtype=np.int64)
        # Satellites keep full cluster state for relaying (Table VI's
        # large satellite vmem): declare it for the memory model.
        for d in self.daemons:
            d.acct.set_tracked(nodes=cluster.n_nodes)
        self._rr = 0
        #: broadcast tasks the master had to execute itself
        self.master_takeovers = 0
        #: Eq. 1 audit hooks, called ``(s, n, width, m)`` per evaluation
        self.eq1_observers: list[t.Callable[[int, int, int, int], None]] = []

    # -- Eq. 1 -------------------------------------------------------------
    def compute_n(self, s: int) -> int:
        """Number of satellites for a broadcast to ``s`` slave nodes."""
        w, m = self.width, len(self.daemons)
        if s <= 0:
            n = 0
        elif s <= w:
            n = 1
        elif s >= m * w:
            n = m
        else:
            n = min(-(-s // w), m)
        tel = telemetry.active()
        if tel is not None:
            tel.count("rm.eq1.evals")
            tel.observe("rm.eq1.satellites", n)
        for observer in self.eq1_observers:
            observer(s, n, w, m)
        return n

    @staticmethod
    def split_bounds(total: int, n: int) -> list[tuple[int, int]]:
        """``[lo, hi)`` index bounds of :meth:`split`'s non-empty parts."""
        if n <= 0:
            return []
        base, extra = divmod(total, n)
        bounds = []
        lo = 0
        for i in range(n):
            hi = lo + base + (1 if i < extra else 0)
            if hi > lo:
                bounds.append((lo, hi))
            lo = hi
        return bounds

    @staticmethod
    def split(targets: t.Sequence[int], n: int) -> list[t.Sequence[int]]:
        """Equal contiguous partition of the target list into ``n`` parts:
        slices, so an id array splits into views without a copy."""
        return [targets[lo:hi] for lo, hi in SatellitePool.split_bounds(len(targets), n)]

    # -- selection & failover ------------------------------------------------
    def heartbeat_all(self) -> None:
        """:meth:`SatelliteDaemon.heartbeat` on every satellite, from one
        read of their liveness.

        No heartbeat changes cluster liveness, so one gather per round
        equals each daemon's own read.  HB_SUCCESS leaves a RUNNING
        satellite as it was, so that step is skipped unless a
        transition observer must see it.
        """
        responsive = (self.cluster.state[self._node_ids] == UP_CODE).tolist()
        running = SatelliteState.RUNNING
        for d, up in zip(self.daemons, responsive):
            if up and d.state is running and not d.transition_observers:
                continue
            d._beat(up)

    def running(self) -> list[SatelliteDaemon]:
        return [d for d in self.daemons if d.state is SatelliteState.RUNNING]

    def next_running(self) -> SatelliteDaemon | None:
        """Round-robin pick among RUNNING satellites (None if none)."""
        n = len(self.daemons)
        for _ in range(n):
            d = self.daemons[self._rr % n]
            self._rr += 1
            if d.state is SatelliteState.RUNNING:
                return d
        return None

    def assign_task(self, n_target_nodes: int) -> SatelliteDaemon | None:
        """Pick a satellite for a broadcast task, with failover.

        Satellites that turn out dead get BT_FAILURE (-> FAULT) and the
        task moves to the next candidate; after ``max_reallocations``
        failed attempts the caller must let the master take over
        (returns ``None``).
        """
        attempts = 0
        while attempts <= self.max_reallocations:
            d = self.next_running()
            if d is None:
                break
            d.handle(SatelliteEvent.BT_START)
            if self.cluster.is_responsive(d.node_id):
                d.stats.tasks_received += 1
                d.stats.nodes_in_tasks += n_target_nodes
                if attempts:
                    telemetry.count("rm.satellite.reallocations", attempts)
                return d
            # Dead despite RUNNING state: failure during the task.
            d.stats.tasks_failed += 1
            d.handle(SatelliteEvent.BT_FAILURE)
            attempts += 1
        if attempts:
            telemetry.count("rm.satellite.reallocations", attempts)
        self.master_takeovers += 1
        telemetry.count("rm.satellite.master_takeovers")
        return None

    def summaries(self) -> list[dict[str, float]]:
        out = []
        for d in self.daemons:
            s = d.acct.summary()
            s["tasks_received"] = float(d.stats.tasks_received)
            s["avg_nodes_per_task"] = d.stats.avg_nodes_per_task
            out.append(s)
        return out
