"""Node vocabulary: roles, lifecycle states and their column codes, hardware."""

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
    """

    UP = "up"
    ALLOC = "alloc"
    DOWN = "down"


#: ``Cluster`` state-column codes, one per :class:`NodeState` in
#: declaration order; codes up to ``ALLOC_CODE`` answer messages.
UP_CODE, ALLOC_CODE, DOWN_CODE = range(3)
#: state-column code -> state
STATE_OF_CODE: tuple[NodeState, ...] = tuple(NodeState)


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
