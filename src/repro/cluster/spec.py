"""Declarative cluster descriptions and the instantiated cluster.

A :class:`ClusterSpec` is pure configuration — sizes, topology, failure
parameters.  Calling :meth:`ClusterSpec.build` on a simulator
produces a :class:`Cluster`: the live object holding the node liveness
column, the failure injector, and the health monitor.

Presets mirror the paper's two testbeds::

    ClusterSpec.tianhe2a()            # 16,384 nodes
    ClusterSpec.tianhe2a(n_nodes=4096)  # the 4K-node partition of Sec. VII-A
    ClusterSpec.ng_tianhe()           # 20,480 ("20K+") nodes
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.failures import FailureInjector, FailureModel
from repro.cluster.monitoring import HealthMonitor, MonitoringConfig
from repro.cluster.node import DOWN_CODE, STATE_OF_CODE, UP_CODE, NodeState
from repro.cluster.topology import Topology
from repro.errors import ClusterError, ConfigurationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkit.core import Simulator


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a machine.

    Args:
        n_nodes: number of *compute* nodes (master/satellites are extra).
        n_satellites: satellite nodes provisioned for ESLURM (``m`` in
            Eq. 1 of the paper).  Centralized RMs simply ignore them.
        topology: physical layout.
        failure_model: stochastic failure behaviour.
        monitoring: monitoring/diagnostic subsystem parameters.
        name: label used in reports.
    """

    n_nodes: int = 1024
    n_satellites: int = 2
    topology: Topology = field(default_factory=Topology)
    failure_model: FailureModel = field(default_factory=FailureModel)
    monitoring: MonitoringConfig = field(default_factory=MonitoringConfig)
    name: str = "cluster"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("cluster needs at least one compute node")
        if self.n_satellites < 0:
            raise ConfigurationError("satellite count cannot be negative")

    # -- presets -------------------------------------------------------------
    @classmethod
    def tianhe2a(cls, n_nodes: int = 16_384, n_satellites: int = 2) -> "ClusterSpec":
        """The paper's Tianhe-2A testbed (or a partition of it)."""
        return cls(
            n_nodes=n_nodes,
            n_satellites=n_satellites,
            name=f"tianhe2a-{n_nodes}",
        )

    @classmethod
    def ng_tianhe(cls, n_nodes: int = 20_480, n_satellites: int = 20) -> "ClusterSpec":
        """The Next Generation Tianhe testbed ("20K+" nodes)."""
        return cls(
            n_nodes=n_nodes,
            n_satellites=n_satellites,
            name=f"ng-tianhe-{n_nodes}",
        )

    def build(self, sim: "Simulator") -> "Cluster":
        """Instantiate the cluster on a simulator."""
        return Cluster(sim, self)


class Cluster:
    """A live cluster: node liveness + failure injection + health monitoring.

    Node ids are dense: compute nodes are ``0 .. n_nodes-1``; the master
    is ``n_nodes``; satellites are ``n_nodes+1 .. n_nodes+n_satellites``.
    A node is its id.  Its role follows from that layout, its name and
    rack/chassis/board are derived on demand (:meth:`name_of`,
    ``topology.coordinates``), and its liveness is one
    column over every id: ``state``, ``uint8`` ``UP_CODE``/``DOWN_CODE``
    codes, a numpy view of a ``bytearray`` so scalar reads are Python
    ints.  Which job holds a node is not recorded here: the RM's
    :class:`~repro.sched.allocator.NodePool` is that record.

    The column is read-only outside this class: :meth:`fail_nodes` and
    :meth:`recover_nodes` are its only writers, which keeps ``version``
    and the unresponsive-id set in step with it.  Every method taking
    ids raises :class:`ClusterError` for an id outside the layout.
    """

    def __init__(self, sim: "Simulator", spec: ClusterSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.topology = spec.topology
        n = spec.n_nodes
        #: number of compute nodes
        self.n_nodes = n
        self.master_id = n
        self.satellite_ids = list(range(n + 1, n + 1 + spec.n_satellites))
        n_ids = n + 1 + spec.n_satellites
        self._state = bytearray(n_ids)  # all UP_CODE
        self.state = np.frombuffer(self._state, dtype=np.uint8)
        self.monitor = HealthMonitor(sim, self, spec.monitoring)
        self.failures = FailureInjector(sim, self, spec.failure_model)
        #: bumped on every liveness change; consumers cache liveness
        #: views against it (the fabric's down set).
        self.version = 0
        # Ids of unresponsive nodes, kept in O(changed) by the writers.
        self._unresponsive: set[int] = set()

    def _bump_version(self, changed: t.Iterable[int]) -> None:
        """Record that the liveness of the ``changed`` ids may have flipped."""
        self.version += 1
        state, unresponsive = self._state, self._unresponsive
        for nid in changed:
            if state[nid] == UP_CODE:
                unresponsive.discard(nid)
            else:
                unresponsive.add(nid)

    def unresponsive_ids(self) -> frozenset[int]:
        """Ids of all unresponsive nodes (compute, master, satellites)."""
        return frozenset(self._unresponsive)

    # -- per-id reads ------------------------------------------------------
    def _check_id(self, node_id: int) -> None:
        if not 0 <= node_id < len(self._state):
            raise ClusterError(f"unknown node id {node_id}")

    def _id_array(self, node_ids: t.Sequence[int]) -> np.ndarray:
        """``node_ids`` as an index array, every id checked."""
        ids = np.fromiter(node_ids, dtype=np.int64, count=len(node_ids))
        n_ids = len(self._state)
        if ids.size and (ids.min() < 0 or ids.max() >= n_ids):
            raise ClusterError(f"unknown node id {ids[(ids < 0) | (ids >= n_ids)][0]}")
        return ids

    def is_responsive(self, node_id: int) -> bool:
        """Whether the node answers messages (not DOWN)."""
        # the id check is inlined: this read is on the fabric's per-transfer path
        if not 0 <= node_id < len(self._state):
            raise ClusterError(f"unknown node id {node_id}")
        return self._state[node_id] == UP_CODE

    def responsive(self, node_ids: t.Sequence[int]) -> np.ndarray:
        """:meth:`is_responsive` of every id, as a boolean mask."""
        return self.state[self._id_array(node_ids)] == UP_CODE

    def state_of(self, node_id: int) -> NodeState:
        self._check_id(node_id)
        return STATE_OF_CODE[self._state[node_id]]

    def name_of(self, node_id: int) -> str:
        """``cnNNNNN`` for compute nodes, ``master``, ``satNN`` for satellites."""
        self._check_id(node_id)
        n = self.n_nodes
        if node_id < n:
            return f"cn{node_id:05d}"
        return "master" if node_id == n else f"sat{node_id - n - 1:02d}"

    def compute_ids(self) -> list[int]:
        """Ids of the compute nodes (a fresh list the caller may keep)."""
        return list(range(self.n_nodes))

    # -- state queries -----------------------------------------------------
    def down_ids(self) -> set[int]:
        """Ids of compute nodes currently DOWN."""
        n = self.n_nodes
        return {nid for nid in self._unresponsive if nid < n}

    # -- liveness control (delegates used heavily by experiments) ----------
    def fail_nodes(self, node_ids: t.Iterable[int]) -> None:
        """Force the given nodes DOWN."""
        ids = list(node_ids)
        self.state[self._id_array(ids)] = DOWN_CODE
        self._bump_version(ids)

    def recover_nodes(self, node_ids: t.Iterable[int]) -> None:
        """Bring the given DOWN nodes back UP."""
        ids = list(node_ids)
        self.state[self._id_array(ids)] = UP_CODE
        self._bump_version(ids)

    def fail_fraction(self, fraction: float, rng: t.Any = None) -> list[int]:
        """Fail a random ``fraction`` of compute nodes; returns their ids.

        Used by the Fig. 8b experiment (failure-ratio sweep).  With no
        ``rng``, the cluster's own seeded stream is used.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ClusterError(f"failure fraction must be in [0, 1], got {fraction}")
        rng = rng if rng is not None else self.sim.rng.stream("cluster.fail_fraction")
        k = round(fraction * self.n_nodes)
        chosen = rng.choice(self.n_nodes, size=k, replace=False) if k else []
        ids = sorted(int(i) for i in chosen)
        self.fail_nodes(ids)
        return ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cluster {self.spec.name}: {self.n_nodes} compute, "
            f"{len(self.satellite_ids)} satellites>"
        )
