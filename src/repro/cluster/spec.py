"""Declarative cluster descriptions and the instantiated cluster.

A :class:`ClusterSpec` is pure configuration — sizes, hardware, topology,
failure parameters.  Calling :meth:`ClusterSpec.build` on a simulator
produces a :class:`Cluster`: the live object holding node instances, the
failure injector, and the health monitor.

Presets mirror the paper's two testbeds::

    ClusterSpec.tianhe2a()            # 16,384 nodes
    ClusterSpec.tianhe2a(n_nodes=4096)  # the 4K-node partition of Sec. VII-A
    ClusterSpec.ng_tianhe()           # 20,480 ("20K+") nodes
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field, replace

from repro.cluster.failures import FailureInjector, FailureModel
from repro.cluster.monitoring import HealthMonitor, MonitoringConfig
from repro.cluster.node import (
    MASTER_NODE,
    NGTIANHE_NODE,
    TIANHE2A_NODE,
    HardwareSpec,
    Node,
    NodeRole,
    NodeState,
)
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
        compute_hw / master_hw: hardware of compute and master nodes.
        topology: physical layout.
        failure_model: stochastic failure behaviour.
        monitoring: monitoring/diagnostic subsystem parameters.
        name: label used in reports.
    """

    n_nodes: int = 1024
    n_satellites: int = 2
    compute_hw: HardwareSpec = TIANHE2A_NODE
    master_hw: HardwareSpec = MASTER_NODE
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
            compute_hw=TIANHE2A_NODE,
            name=f"tianhe2a-{n_nodes}",
        )

    @classmethod
    def ng_tianhe(cls, n_nodes: int = 20_480, n_satellites: int = 20) -> "ClusterSpec":
        """The Next Generation Tianhe testbed ("20K+" nodes)."""
        return cls(
            n_nodes=n_nodes,
            n_satellites=n_satellites,
            compute_hw=NGTIANHE_NODE,
            name=f"ng-tianhe-{n_nodes}",
        )

    def with_satellites(self, n_satellites: int) -> "ClusterSpec":
        """Copy of this spec with a different satellite pool size."""
        return replace(self, n_satellites=n_satellites)

    def build(self, sim: "Simulator") -> "Cluster":
        """Instantiate the cluster on a simulator."""
        return Cluster(sim, self)

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.compute_hw.cores


class Cluster:
    """A live cluster: nodes + failure injection + health monitoring.

    Node ids are dense: compute nodes are ``0 .. n_nodes-1``; the master
    is ``n_nodes``; satellites are ``n_nodes+1 .. n_nodes+n_satellites``.
    """

    def __init__(self, sim: "Simulator", spec: ClusterSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.topology = spec.topology
        self.nodes: list[Node] = []
        for i in range(spec.n_nodes):
            rack, chassis, board = spec.topology.coordinates(i)
            self.nodes.append(
                Node(
                    node_id=i,
                    name=f"cn{i:05d}",
                    role=NodeRole.COMPUTE,
                    cores=spec.compute_hw.cores,
                    mem_gb=spec.compute_hw.mem_gb,
                    rack=rack,
                    chassis=chassis,
                    board=board,
                )
            )
        self.master = Node(
            node_id=spec.n_nodes,
            name="master",
            role=NodeRole.MASTER,
            cores=spec.master_hw.cores,
            mem_gb=spec.master_hw.mem_gb,
        )
        self.satellites: list[Node] = [
            Node(
                node_id=spec.n_nodes + 1 + k,
                name=f"sat{k:02d}",
                role=NodeRole.SATELLITE,
                cores=spec.master_hw.cores,
                mem_gb=spec.master_hw.mem_gb,
            )
            for k in range(spec.n_satellites)
        ]
        self._by_id: dict[int, Node] = {n.node_id: n for n in self.all_nodes()}
        # Compute nodes are fixed after build; heartbeat rounds ask for
        # their ids every rebuild.
        self._compute_ids = [n.node_id for n in self.nodes]
        self.monitor = HealthMonitor(sim, self, spec.monitoring)
        self.failures = FailureInjector(sim, self, spec.failure_model)
        #: bumped on every liveness change; consumers cache liveness
        #: views against it (the fabric's down set, heartbeat rounds).
        self.version = 0
        # Incrementally-maintained ids of unresponsive nodes.  Every node
        # starts UP, so the set starts empty and valid; liveness changes
        # reported through :meth:`bump_version` with their ids keep it
        # current in O(changed), while an id-less bump (external code
        # flipping :class:`Node` state directly) falls back to a full
        # resweep on the next query.
        self._unresponsive: set[int] = set()
        self._unresponsive_stale = False

    def bump_version(self, changed: t.Iterable[int] | None = None) -> None:
        """Record that node liveness changed (invalidates liveness caches).

        Pass the ids whose state flipped to keep the unresponsive-id set
        incremental; without them the next liveness query pays one O(n)
        sweep over the node table.
        """
        self.version += 1
        if changed is None:
            self._unresponsive_stale = True
        elif not self._unresponsive_stale:
            for nid in changed:
                if self._by_id[nid].responsive:
                    self._unresponsive.discard(nid)
                else:
                    self._unresponsive.add(nid)

    def unresponsive_ids(self) -> frozenset[int]:
        """Ids of all unresponsive nodes (compute, master, satellites)."""
        if self._unresponsive_stale:
            self._unresponsive = {
                n.node_id for n in self.all_nodes() if not n.responsive
            }
            self._unresponsive_stale = False
        return frozenset(self._unresponsive)

    # -- lookup ----------------------------------------------------------
    def all_nodes(self) -> t.Iterator[Node]:
        """Every node: compute, then master, then satellites."""
        yield from self.nodes
        yield self.master
        yield from self.satellites

    def node(self, node_id: int) -> Node:
        """Node by id; raises :class:`ClusterError` for unknown ids."""
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ClusterError(f"unknown node id {node_id}") from None

    # -- job binding -------------------------------------------------------
    def bind(self, node_ids: t.Iterable[int], job_id: int) -> None:
        """Bind ``job_id`` to every node in ``node_ids`` (a launch or grow).

        Raises :class:`ClusterError` for an unknown id or a node that is
        not allocatable (not UP, or already running a job).
        """
        by_id = self._by_id
        up, alloc = NodeState.UP, NodeState.ALLOC
        for nid in node_ids:
            node = by_id.get(nid)
            if node is None:
                raise ClusterError(f"unknown node id {nid}")
            if node.state is not up or node.running_job is not None:
                raise ClusterError(
                    f"node {node.name} not allocatable "
                    f"(state={node.state.value}, job={node.running_job})"
                )
            node.state = alloc
            node.running_job = job_id

    def unbind(self, node_ids: t.Iterable[int], job_id: int) -> None:
        """Release the nodes in ``node_ids`` still bound to ``job_id``.

        Nodes rebound to another job are skipped; DOWN nodes lose the
        binding but stay DOWN (recovery brings them back UP).
        """
        by_id = self._by_id
        up, alloc = NodeState.UP, NodeState.ALLOC
        for nid in node_ids:
            node = by_id[nid]
            if node.running_job == job_id:
                if node.state is alloc:
                    node.state = up
                node.running_job = None

    @property
    def n_nodes(self) -> int:
        """Number of compute nodes."""
        return len(self.nodes)

    def compute_ids(self, lo: int = 0, hi: int | None = None) -> list[int]:
        """Ids of the compute nodes, or of positions ``[lo, hi)`` of
        them (a fresh list the caller may keep)."""
        return self._compute_ids[lo:hi]

    # -- state queries -----------------------------------------------------
    def up_nodes(self) -> list[Node]:
        """Compute nodes currently allocatable."""
        return [n for n in self.nodes if n.allocatable]

    def down_ids(self) -> set[int]:
        """Ids of compute nodes currently DOWN or DRAINED."""
        n = len(self.nodes)
        return {nid for nid in self.unresponsive_ids() if nid < n}

    def failed_fraction(self) -> float:
        """Fraction of compute nodes currently unresponsive."""
        return len(self.down_ids()) / len(self.nodes)

    def is_responsive(self, node_id: int) -> bool:
        return self.node(node_id).responsive

    # -- failure control (delegates used heavily by experiments) -----------
    def fail_nodes(self, node_ids: t.Iterable[int]) -> None:
        """Force the given compute nodes DOWN (deterministic scenarios)."""
        ids = list(node_ids)
        for nid in ids:
            self.node(nid).fail()
        self.bump_version(ids)

    def recover_nodes(self, node_ids: t.Iterable[int]) -> None:
        ids = list(node_ids)
        for nid in ids:
            self.node(nid).recover()
        self.bump_version(ids)

    def fail_fraction(self, fraction: float, rng: t.Any = None) -> list[int]:
        """Fail a random ``fraction`` of compute nodes; returns their ids.

        Used by the Fig. 8b experiment (failure-ratio sweep).  With no
        ``rng``, the cluster's own seeded stream is used.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ClusterError(f"failure fraction must be in [0, 1], got {fraction}")
        rng = rng if rng is not None else self.sim.rng.stream("cluster.fail_fraction")
        k = round(fraction * len(self.nodes))
        chosen = rng.choice(len(self.nodes), size=k, replace=False) if k else []
        ids = sorted(int(i) for i in chosen)
        self.fail_nodes(ids)
        return ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cluster {self.spec.name}: {self.n_nodes} compute, "
            f"{len(self.satellites)} satellites>"
        )
