"""Declarative cluster descriptions and the instantiated cluster.

A :class:`ClusterSpec` is pure configuration — sizes, hardware, topology,
failure parameters.  Calling :meth:`ClusterSpec.build` on a simulator
produces a :class:`Cluster`: the live object holding the node state and
job-binding columns, the failure injector, and the health monitor.

Presets mirror the paper's two testbeds::

    ClusterSpec.tianhe2a()            # 16,384 nodes
    ClusterSpec.tianhe2a(n_nodes=4096)  # the 4K-node partition of Sec. VII-A
    ClusterSpec.ng_tianhe()           # 20,480 ("20K+") nodes
"""

from __future__ import annotations

import typing as t
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.failures import FailureInjector, FailureModel
from repro.cluster.monitoring import HealthMonitor, MonitoringConfig
from repro.cluster.node import (
    ALLOC_CODE,
    DOWN_CODE,
    MASTER_NODE,
    NGTIANHE_NODE,
    STATE_OF_CODE,
    TIANHE2A_NODE,
    UP_CODE,
    HardwareSpec,
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


#: owner-column value for "no job bound to this node"
_NO_JOB = -1

#: ``bind``/``unbind`` calls with fewer ids walk the columns in Python,
#: larger ones write one numpy mask.  On a 2-CPU Xeon under CPython
#: 3.11 a bind+unbind pair costs the mask a fixed ~20 us and the walk
#: ~0.3 us per id, so the two cross at about 56-72 ids.  The 1K
#: malleable day (median job 5 nodes) needs the walk, the 65K Slurm day
#: the mask.
_VECTOR_MIN = 64


class Cluster:
    """A live cluster: node columns + failure injection + health monitoring.

    Node ids are dense: compute nodes are ``0 .. n_nodes-1``; the master
    is ``n_nodes``; satellites are ``n_nodes+1 .. n_nodes+n_satellites``.
    A node is its id.  Its role follows from that layout, its name and
    rack/chassis/board are derived on demand (:meth:`name_of`,
    :meth:`role_of`, ``topology.coordinates``), and its liveness and job
    binding are two columns over every id:

    * ``state`` — ``uint8`` :class:`NodeState` codes (``UP_CODE`` ...), a
      numpy view of a ``bytearray`` so scalar reads are Python ints;
    * ``owner`` — ``int64`` id of the job bound to the node, -1 if none.

    Both are read-only outside this class: :meth:`bind`, :meth:`unbind`,
    :meth:`fail_nodes` and :meth:`recover_nodes` are the only writers,
    which keeps ``version`` and the unresponsive-id set in step with
    them.  Every method taking ids raises :class:`ClusterError` for an
    id outside the layout.
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
        self._owner = array("q", [_NO_JOB]) * n_ids
        self.state = np.frombuffer(self._state, dtype=np.uint8)
        self.owner = np.frombuffer(self._owner, dtype=np.int64)
        # Heartbeat rounds ask for the compute ids every rebuild.
        self._compute_ids = list(range(n))
        self.monitor = HealthMonitor(sim, self, spec.monitoring)
        self.failures = FailureInjector(sim, self, spec.failure_model)
        #: bumped on every liveness change; consumers cache liveness
        #: views against it (the fabric's down set, heartbeat rounds).
        self.version = 0
        # Ids of unresponsive nodes, kept in O(changed) by the writers.
        self._unresponsive: set[int] = set()

    def _bump_version(self, changed: t.Iterable[int]) -> None:
        """Record that the liveness of the ``changed`` ids may have flipped."""
        self.version += 1
        state, unresponsive = self._state, self._unresponsive
        for nid in changed:
            if state[nid] <= ALLOC_CODE:
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
        return self._state[node_id] <= ALLOC_CODE

    def state_of(self, node_id: int) -> NodeState:
        self._check_id(node_id)
        return STATE_OF_CODE[self._state[node_id]]

    def owner_of(self, node_id: int) -> int | None:
        """Id of the job bound to the node, or ``None``."""
        self._check_id(node_id)
        owner = self._owner[node_id]
        return None if owner == _NO_JOB else owner

    def role_of(self, node_id: int) -> NodeRole:
        self._check_id(node_id)
        n = self.n_nodes
        if node_id < n:
            return NodeRole.COMPUTE
        return NodeRole.MASTER if node_id == n else NodeRole.SATELLITE

    def name_of(self, node_id: int) -> str:
        """``cnNNNNN`` for compute nodes, ``master``, ``satNN`` for satellites."""
        self._check_id(node_id)
        n = self.n_nodes
        if node_id < n:
            return f"cn{node_id:05d}"
        return "master" if node_id == n else f"sat{node_id - n - 1:02d}"

    # -- job binding -------------------------------------------------------
    def _not_allocatable(self, node_id: int) -> ClusterError:
        return ClusterError(
            f"node {self.name_of(node_id)} not allocatable "
            f"(state={self.state_of(node_id).value}, job={self.owner_of(node_id)})"
        )

    def bind(self, node_ids: t.Iterable[int], job_id: int) -> None:
        """Bind ``job_id`` to every node in ``node_ids`` (a launch or grow).

        All or nothing: raises :class:`ClusterError`, and writes nothing,
        for an unknown id, a repeated id or a node that is not
        allocatable (not UP; an UP node is never bound).
        """
        ids = node_ids if isinstance(node_ids, tuple) else tuple(node_ids)
        if len(ids) >= _VECTOR_MIN:
            cols = self._id_array(ids)
            busy = self.state[cols]
            if busy.any():  # UP_CODE is 0
                raise self._not_allocatable(int(cols[np.flatnonzero(busy)[0]]))
            # Allocations arrive ascending; only other orders pay a sort.
            if not (cols[1:] > cols[:-1]).all():
                ordered = np.sort(cols)
                if (ordered[1:] == ordered[:-1]).any():
                    raise ClusterError(f"job {job_id}: repeated node id in bind")
            self.state[cols] = ALLOC_CODE
            self.owner[cols] = job_id
            return
        state = self._state
        n_ids = len(state)
        for nid in ids:
            if not 0 <= nid < n_ids:
                raise ClusterError(f"unknown node id {nid}")
            if state[nid]:  # UP_CODE is 0
                raise self._not_allocatable(nid)
        if len(ids) > 1 and len(set(ids)) != len(ids):
            raise ClusterError(f"job {job_id}: repeated node id in bind")
        owner = self._owner
        for nid in ids:
            state[nid] = ALLOC_CODE
            owner[nid] = job_id

    def unbind(self, node_ids: t.Iterable[int], job_id: int) -> None:
        """Release the nodes in ``node_ids`` still bound to ``job_id``.

        Nodes rebound to another job are skipped; DOWN nodes lose the
        binding but stay DOWN (recovery brings them back UP).
        """
        ids = node_ids if isinstance(node_ids, tuple) else tuple(node_ids)
        if len(ids) >= _VECTOR_MIN:
            cols = self._id_array(ids)
            mine = cols[self.owner[cols] == job_id]
            self.owner[mine] = _NO_JOB
            state = self.state
            state[mine[state[mine] == ALLOC_CODE]] = UP_CODE
            return
        state, owner = self._state, self._owner
        n_ids = len(state)
        for nid in ids:
            if not 0 <= nid < n_ids:
                raise ClusterError(f"unknown node id {nid}")
        for nid in ids:
            if owner[nid] == job_id:
                if state[nid] == ALLOC_CODE:
                    state[nid] = UP_CODE
                owner[nid] = _NO_JOB

    def compute_ids(self, lo: int = 0, hi: int | None = None) -> list[int]:
        """Ids of the compute nodes, or of positions ``[lo, hi)`` of
        them (a fresh list the caller may keep)."""
        return self._compute_ids[lo:hi]

    # -- state queries -----------------------------------------------------
    def down_ids(self) -> set[int]:
        """Ids of compute nodes currently DOWN."""
        n = self.n_nodes
        return {nid for nid in self._unresponsive if nid < n}

    def failed_fraction(self) -> float:
        """Fraction of compute nodes currently unresponsive."""
        return len(self.down_ids()) / self.n_nodes

    # -- liveness control (delegates used heavily by experiments) ----------
    def fail_nodes(self, node_ids: t.Iterable[int]) -> None:
        """Force the given nodes DOWN; a bound job keeps its binding
        until recovery."""
        ids = list(node_ids)
        self.state[self._id_array(ids)] = DOWN_CODE
        self._bump_version(ids)

    def recover_nodes(self, node_ids: t.Iterable[int]) -> None:
        """Bring the given DOWN nodes back UP, dropping any stale binding."""
        ids = list(node_ids)
        cols = self._id_array(ids)
        down = cols[self.state[cols] == DOWN_CODE]
        self.state[down] = UP_CODE
        self.owner[down] = _NO_JOB
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
