"""Latency/bandwidth model of the interconnect.

The model decomposes one point-to-point transfer into::

    delay = send_overhead (sender CPU, serialises per-connection work)
          + hop_latency[hop_level]         (propagation, by distance class)
          + size_bytes / bandwidth          (serialisation on a 25 Gb/s lane)

A transfer to a dead node costs ``connect_timeout * (1 + retries)``
before the sender gives up — the paper sets three connection retries in
its structure comparison (Section VII-A), and this timeout term is what
turns failed nodes into latency, which the FP-Tree then bounds.

The interconnect is fixed: the parameters below are module constants,
and every delay is a deterministic function of the two endpoints and
the payload size.  The defaults follow the paper's hardware description
(25 Gb/s serial lanes) with conservative software overheads typical of
socket-based RM daemons.
"""

from __future__ import annotations

import functools
import typing as t

import numpy as np

from repro.telemetry import facade as telemetry

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.spec import Cluster
    from repro.cluster.topology import Topology
    from repro.simkit.core import Simulator


#: sender-side CPU per connection (setup, serialisation); the term
#: that serialises fan-out
SEND_OVERHEAD_S = 0.0008
#: propagation latency per hop level, indexed by :class:`HopLevel`
HOP_LATENCY_S = (
    0.0,      # same node
    2e-6,     # same board
    5e-6,     # same chassis
    1.2e-5,   # same rack
    2.5e-5,   # cross rack
)
#: one 25 Gb/s serial lane
BYTES_PER_SECOND = 25.0 * 1e9 / 8.0
#: time lost discovering that a peer is dead: a 1 s connect timeout,
#: then three retries (the paper's setting)
DEAD_NODE_PENALTY_S = 1.0 * (1 + 3)


@functools.lru_cache(maxsize=4)
def hop_layout(topology: Topology, n_nodes: int, n_ids: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``(table, lows, far)`` for a machine of ``n_nodes`` compute nodes
    in ``topology`` and ``n_ids`` ids: one integer *hop code* per id
    (read-only), the lowest bit of each code field, and a code one
    rack away from every node's.  Cached: a machine's fabrics (one per
    simulated world) share one table.

    A code packs a node's node-in-board, board-in-chassis,
    chassis-in-rack and rack indices into bit fields, lowest first,
    each ``(dim - 1).bit_length()`` bits wide.  The layout nests (a
    board lies in one chassis, a chassis in one rack), so the highest
    set bit of ``code[a] ^ code[b]`` lies in the coarsest field whose
    index differs, and the pair's
    :class:`~repro.cluster.topology.HopLevel` is the number of field
    low bits at or below that XOR (0 when it is 0).  Ids past the
    compute nodes (the master and satellites) get node 0's code, 0, as
    :meth:`NetworkFabric.transfer_delay` maps them.
    """
    dims = (
        topology.nodes_per_board,
        topology.boards_per_chassis,
        topology.chassis_per_rack,
        topology.racks_for(n_nodes),
    )
    widths = [(dim - 1).bit_length() for dim in dims]
    dtype = np.int32 if sum(widths) < 31 else np.int64  # room for the far code
    table = np.zeros(n_ids, dtype=dtype)
    rest = np.arange(n_nodes, dtype=dtype)
    lows = []
    shift = 0
    for dim, width in zip(dims, widths):
        lows.append(1 << shift)
        table[:n_nodes] |= (rest % dim) << shift
        rest //= dim
        shift += width
    table.flags.writeable = False
    return table, np.array(lows, dtype=dtype), 1 << shift


#: payload sizes whose per-HopLevel delays a fabric keeps
_PER_HOP_CACHE_SIZE = 256


class NetworkFabric:
    """Evaluates transfer delays against the live cluster state."""

    def __init__(self, sim: "Simulator", cluster: "Cluster") -> None:
        self.sim = sim
        self.cluster = cluster
        #: (cluster.version, frozenset of unresponsive ids) — see
        #: :meth:`unreachable_ids`
        self._unreachable_cache: tuple[int, frozenset[int]] | None = None
        #: payload size -> delay per HopLevel, see :meth:`_per_hop`
        self._per_hop_cache: dict[int, np.ndarray] = {}

    # -- scalar API --------------------------------------------------------
    def transfer_delay(self, src: int, dst: int, size_bytes: int) -> float:
        """Delay for one successful transfer (does not check liveness)."""
        tel = telemetry.active()
        if tel is not None:
            tel.count("net.messages")
            tel.count("net.bytes", size_bytes)
        hop = self.cluster.topology.hop_level(
            min(src, self.cluster.n_nodes - 1) if src < self.cluster.n_nodes else 0,
            min(dst, self.cluster.n_nodes - 1) if dst < self.cluster.n_nodes else 0,
        )
        return SEND_OVERHEAD_S + HOP_LATENCY_S[hop] + size_bytes / BYTES_PER_SECOND

    def is_reachable(self, node_id: int) -> bool:
        """Whether the target currently answers connections."""
        return self.cluster.is_responsive(node_id)

    def unreachable_ids(self) -> frozenset[int]:
        """Ids of currently-unresponsive nodes (compute, master, satellites).

        Cached against ``cluster.version``, which every liveness change
        bumps: node state changes only through the cluster's own
        writers (``fail_nodes``, ``recover_nodes`` and the like), and
        each one also updates the unresponsive-id set in O(changed), so
        refreshing the cache never sweeps the node columns at machine
        scale.
        """
        ver = self.cluster.version
        cached = self._unreachable_cache
        if cached is not None and cached[0] == ver:
            return cached[1]
        ids = self.cluster.unresponsive_ids()
        self._unreachable_cache = (ver, ids)
        return ids

    # -- vectorized API (hot path for broadcast evaluation) --------------
    @functools.cached_property
    def _hop_layout(self) -> tuple[np.ndarray, np.ndarray, int]:
        """This fabric's :func:`hop_layout`."""
        cluster = self.cluster
        return hop_layout(cluster.topology, cluster.n_nodes, cluster.state.size)

    @functools.cached_property
    def position_scratch(self) -> np.ndarray:
        """A writable ``int32`` column over every id, for callers that
        index list positions by id (the tree sweep's repeat check);
        it holds whatever the last caller wrote."""
        return np.empty(self.cluster.state.size, dtype=np.int32)

    def hop_codes(self, ids: np.ndarray) -> np.ndarray:
        """Hop codes of the ``int64`` ids ``ids``.

        An id past the table reads as node 0, like the master and
        satellites (:meth:`transfer_delay` clamps them all alike); a
        negative id, which the scalar path's floor division places
        before rack 0, reads as one rack away from every node.
        """
        table, _, far = self._hop_layout
        # viewed unsigned, a negative id is past the table too
        if not ids.size or ids.view(np.uint64).max() < table.size:
            return table.take(ids)
        codes = table.take(ids, mode="clip")  # the last id is a satellite or the master
        codes[ids < 0] = far
        return codes

    def transfer_delays(self, src: int, dsts: np.ndarray, size_bytes: int) -> np.ndarray:
        """Vectorised :meth:`transfer_delay` for many destinations.

        Hop levels come from the per-id hop codes (:func:`hop_layout`)
        without Python loops; used by the star/tree engines at full
        machine scale.
        """
        src_code = self.hop_codes(np.array([src], dtype=np.int64))[0]
        dst_codes = self.hop_codes(np.asarray(dsts, dtype=np.int64))
        return self.link_delays(src_code, dst_codes, size_bytes)

    def link_delays(
        self, src_codes: np.ndarray, dst_codes: np.ndarray, size_bytes: int
    ) -> np.ndarray:
        """Delays of the links between hop codes (:meth:`hop_codes`):
        one XOR, one search over the code fields' low bits and one
        gather from the per-level delays."""
        tel = telemetry.active()
        if tel is not None:
            tel.count("net.messages", len(dst_codes))
            tel.count("net.bytes", size_bytes * len(dst_codes))
        hop = self._hop_layout[1].searchsorted(src_codes ^ dst_codes, side="right")
        return self._per_hop(size_bytes).take(hop)

    def _per_hop(self, size_bytes: int) -> np.ndarray:
        """One delay per HopLevel for a ``size_bytes`` payload, summed
        left to right like the scalar path; cached per size (the
        simulated days send two)."""
        per_hop = self._per_hop_cache.get(size_bytes)
        if per_hop is None:
            if len(self._per_hop_cache) >= _PER_HOP_CACHE_SIZE:
                self._per_hop_cache.clear()
            wire_s = size_bytes / BYTES_PER_SECOND
            per_hop = np.array([SEND_OVERHEAD_S + lat + wire_s for lat in HOP_LATENCY_S])
            self._per_hop_cache[size_bytes] = per_hop
        return per_hop

    def reachability(self, node_ids: t.Sequence[int]) -> np.ndarray:
        """Boolean liveness mask over ``node_ids``: one read of the
        cluster's ``state`` column.  An id outside the cluster raises
        :class:`~repro.errors.ClusterError`, as
        :meth:`Cluster.is_responsive` does."""
        return self.cluster.responsive(node_ids)
