"""Physical topology: the rack / chassis / board hierarchy.

The Tianhe systems organise compute nodes on boards, boards in chassis,
chassis in racks, all joined by a proprietary fat-tree-like interconnect.
For the communication model only the *hop level* between two nodes
matters: same board < same chassis < same rack < cross-rack.  The
monitoring network (BMU/CMU/SMU) follows the same hierarchy.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from repro.errors import ConfigurationError


class HopLevel(enum.IntEnum):
    """Distance class between two nodes; higher means farther."""

    SAME_NODE = 0
    SAME_BOARD = 1
    SAME_CHASSIS = 2
    SAME_RACK = 3
    CROSS_RACK = 4


@dataclass(frozen=True)
class Topology:
    """Regular rack/chassis/board layout.

    Node *i* sits at board ``i // nodes_per_board`` etc.; the layout is
    dense and deterministic, which is what both Tianhe generations use
    for their base enumeration.

    Args:
        nodes_per_board: compute nodes that share a board.
        boards_per_chassis: boards per chassis.
        chassis_per_rack: chassis per rack.
    """

    nodes_per_board: int = 8
    boards_per_chassis: int = 16
    chassis_per_rack: int = 4

    def __post_init__(self) -> None:
        if min(self.nodes_per_board, self.boards_per_chassis, self.chassis_per_rack) < 1:
            raise ConfigurationError("topology dimensions must be positive")

    # cached_property works on a frozen dataclass (no __slots__): the
    # memo bypasses __setattr__ and lands in the instance __dict__.
    @functools.cached_property
    def nodes_per_chassis(self) -> int:
        return self.nodes_per_board * self.boards_per_chassis

    @functools.cached_property
    def nodes_per_rack(self) -> int:
        return self.nodes_per_chassis * self.chassis_per_rack

    def coordinates(self, node_id: int) -> tuple[int, int, int]:
        """``(rack, chassis, board)`` of a node id (global indices)."""
        if node_id < 0:
            raise ConfigurationError(f"negative node id {node_id}")
        board = node_id // self.nodes_per_board
        chassis = node_id // self.nodes_per_chassis
        rack = node_id // self.nodes_per_rack
        return rack, chassis, board

    def hop_level(self, a: int, b: int) -> HopLevel:
        """Distance class between node ids ``a`` and ``b``.

        Divide-and-compare without building coordinate tuples — this
        sits on the per-transfer hot path of the latency model.
        """
        if a == b:
            return HopLevel.SAME_NODE
        npb = self.nodes_per_board
        if a // npb == b // npb:
            return HopLevel.SAME_BOARD
        npc = self.nodes_per_chassis
        if a // npc == b // npc:
            return HopLevel.SAME_CHASSIS
        npr = self.nodes_per_rack
        if a // npr == b // npr:
            return HopLevel.SAME_RACK
        return HopLevel.CROSS_RACK

    def rack_of(self, node_id: int) -> int:
        return self.coordinates(node_id)[0]

    def racks_for(self, total_nodes: int) -> int:
        """Number of (possibly partially filled) racks for a cluster size."""
        return -(-total_nodes // self.nodes_per_rack)
