"""Network substrate: message kinds, latency fabric, sockets, broadcast engines.

The fabric models the Tianhe proprietary interconnect at the level the
paper's experiments need: per-hop latency classes, 25 Gb/s links,
connection-setup overheads, dead-node timeouts and retries.  Broadcast
*structures* (ring, star, shared-memory, k-ary tree — Section VII-A's
comparison set) are evaluated as deterministic computations over that
model, which keeps full-machine (20K+ node) experiments fast while
preserving exactly the failure semantics the paper describes: a failed
node times out instead of relaying, and a failed *inner* node delays its
entire subtree and forces the parent through a slow synchronous
takeover path.
"""

from repro.network.broadcast import BroadcastResult
from repro.network.fabric import NetworkFabric
from repro.network.message import MessageKind
from repro.network.sockets import ConnectionTracker
from repro.network.structures import (
    RingBroadcast,
    SharedMemoryBroadcast,
    StarBroadcast,
    TreeBroadcast,
)

__all__ = [
    "MessageKind",
    "NetworkFabric",
    "ConnectionTracker",
    "BroadcastResult",
    "RingBroadcast",
    "StarBroadcast",
    "SharedMemoryBroadcast",
    "TreeBroadcast",
]
