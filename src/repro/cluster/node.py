"""Node model: identity, hardware, role, and lifecycle state."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ClusterError


class NodeRole(enum.Enum):
    """What a node does in the resource-management hierarchy."""

    COMPUTE = "compute"
    MASTER = "master"
    SATELLITE = "satellite"


class NodeState(enum.Enum):
    """Operational state of a node.

    ``UP``      healthy and idle/allocatable
    ``ALLOC``   healthy and running a job
    ``DOWN``    failed (times out instead of answering)
    ``DRAINED`` administratively removed (maintenance)
    """

    UP = "up"
    ALLOC = "alloc"
    DOWN = "down"
    DRAINED = "drained"


#: States in which a node answers network messages.
RESPONSIVE_STATES = frozenset({NodeState.UP, NodeState.ALLOC})


@dataclass(slots=True)
class Node:
    """A single machine in the cluster.

    Slotted: the 65K/131K-node tiers materialise one of these per node,
    and per-instance ``__dict__``s roughly double their memory footprint
    while slowing every state read in the failure/heartbeat scans.

    Attributes:
        node_id: dense integer id, unique within the cluster.
        name: human-readable name (``cn0001`` style).
        role: place in the RM hierarchy.
        cores: CPU cores available to jobs.
        mem_gb: RAM in GiB.
        state: current lifecycle state.
        rack / chassis / board: physical topology coordinates.
        running_job: id of the job currently occupying the node, if any.
    """

    node_id: int
    name: str
    role: NodeRole = NodeRole.COMPUTE
    cores: int = 12
    mem_gb: int = 64
    state: NodeState = NodeState.UP
    rack: int = 0
    chassis: int = 0
    board: int = 0
    running_job: int | None = None

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ClusterError(f"node_id must be non-negative, got {self.node_id}")
        if self.cores < 1 or self.mem_gb < 1:
            raise ClusterError(f"node {self.name}: cores/mem must be positive")

    # -- state predicates ------------------------------------------------
    @property
    def responsive(self) -> bool:
        """Whether the node answers messages (not DOWN/DRAINED)."""
        return self.state in RESPONSIVE_STATES

    @property
    def allocatable(self) -> bool:
        """Whether the scheduler may place a job here."""
        return self.state is NodeState.UP and self.running_job is None

    # -- transitions --------------------------------------------------------
    def fail(self) -> None:
        """Mark the node failed.  Idempotent; DRAINED nodes stay drained."""
        if self.state is not NodeState.DRAINED:
            self.state = NodeState.DOWN

    def recover(self) -> None:
        """Bring a DOWN node back up (clears any stale job binding)."""
        if self.state is NodeState.DOWN:
            self.state = NodeState.UP
            self.running_job = None

    def drain(self) -> None:
        """Administratively remove the node from service."""
        self.state = NodeState.DRAINED
        self.running_job = None

    def undrain(self) -> None:
        if self.state is NodeState.DRAINED:
            self.state = NodeState.UP

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} {self.role.value} {self.state.value}>"


@dataclass(frozen=True)
class HardwareSpec:
    """Per-node hardware description used by cluster presets."""

    cores: int = 12
    mem_gb: int = 64
    accelerator: str | None = None

    def __post_init__(self) -> None:
        if self.cores < 1 or self.mem_gb < 1:
            raise ClusterError("hardware spec must have positive cores and memory")


#: Tianhe-2A compute node: 12-core 2.2 GHz Xeon + Matrix-2000, 64 GB.
TIANHE2A_NODE = HardwareSpec(cores=12, mem_gb=64, accelerator="Matrix-2000")
#: NG-Tianhe compute node: heterogeneous many-core MT processor.
NGTIANHE_NODE = HardwareSpec(cores=64, mem_gb=128, accelerator="MT-many-core")
#: Master node of the paper's testbed: 10-core Xeon Silver 4210R, 196 GB.
MASTER_NODE = HardwareSpec(cores=10, mem_gb=196)
