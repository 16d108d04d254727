"""Latency/bandwidth model of the interconnect.

The model decomposes one point-to-point transfer into::

    delay = send_overhead (sender CPU, serialises per-connection work)
          + hop_latency[hop_level]         (propagation, by distance class)
          + size_bytes / bandwidth          (serialisation on a 25 Gb/s lane)

A transfer to a dead node costs ``connect_timeout * (1 + retries)``
before the sender gives up — the paper sets three connection retries in
its structure comparison (Section VII-A), and this timeout term is what
turns failed nodes into latency, which the FP-Tree then bounds.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.telemetry import facade as telemetry

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.spec import Cluster
    from repro.simkit.core import Simulator


@dataclass(frozen=True)
class FabricConfig:
    """Interconnect parameters.

    Defaults follow the paper's hardware description (25 Gb/s serial
    lanes) with conservative software overheads typical of socket-based
    RM daemons.

    Args:
        bandwidth_gbps: per-lane bandwidth.
        send_overhead_s: sender-side CPU per connection (setup,
            serialisation); this is the term that serialises fan-out.
        hop_latency_s: propagation latency per hop level, indexed by
            :class:`HopLevel` (5 entries).
        connect_timeout_s: how long a connect to a dead node blocks.
        retries: reconnect attempts before declaring the peer dead
            (paper: 3).
        jitter_frac: multiplicative latency jitter (uniform ±frac);
            0 disables and keeps transfers fully deterministic.
    """

    bandwidth_gbps: float = 25.0
    send_overhead_s: float = 0.0008
    hop_latency_s: tuple[float, float, float, float, float] = (
        0.0,      # same node
        2e-6,     # same board
        5e-6,     # same chassis
        1.2e-5,   # same rack
        2.5e-5,   # cross rack
    )
    connect_timeout_s: float = 1.0
    retries: int = 3
    jitter_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.send_overhead_s < 0 or self.connect_timeout_s <= 0:
            raise ConfigurationError("invalid overhead/timeout")
        if self.retries < 0:
            raise ConfigurationError("retries cannot be negative")
        if len(self.hop_latency_s) != 5:
            raise ConfigurationError("hop_latency_s needs one entry per HopLevel")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ConfigurationError("jitter_frac must be in [0, 1)")

    @property
    def bytes_per_second(self) -> float:
        return self.bandwidth_gbps * 1e9 / 8.0

    @property
    def dead_node_penalty_s(self) -> float:
        """Time lost discovering that a peer is dead."""
        return self.connect_timeout_s * (1 + self.retries)


class NetworkFabric:
    """Evaluates transfer delays against the live cluster state."""

    def __init__(self, sim: "Simulator", cluster: "Cluster", config: FabricConfig | None = None) -> None:
        self.sim = sim
        self.cluster = cluster
        self.config = config or FabricConfig()
        self._rng = sim.rng.stream("fabric")
        #: (cluster.version, frozenset of unresponsive ids) — see
        #: :meth:`unreachable_ids`
        self._unreachable_cache: tuple[int, frozenset[int]] | None = None

    # -- scalar API --------------------------------------------------------
    def transfer_delay(self, src: int, dst: int, size_bytes: int) -> float:
        """Delay for one successful transfer (does not check liveness)."""
        tel = telemetry.active()
        if tel is not None:
            tel.count("net.messages")
            tel.count("net.bytes", size_bytes)
        cfg = self.config
        hop = self.cluster.topology.hop_level(
            min(src, self.cluster.n_nodes - 1) if src < self.cluster.n_nodes else 0,
            min(dst, self.cluster.n_nodes - 1) if dst < self.cluster.n_nodes else 0,
        )
        delay = cfg.send_overhead_s + cfg.hop_latency_s[hop] + size_bytes / cfg.bytes_per_second
        if cfg.jitter_frac:
            delay *= 1.0 + cfg.jitter_frac * (2.0 * self._rng.random() - 1.0)
        return delay

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

    def attempt_delay(self, src: int, dst: int, size_bytes: int) -> tuple[float, bool]:
        """``(delay, delivered)`` for one attempt against live state."""
        if self.is_reachable(dst):
            return self.transfer_delay(src, dst, size_bytes), True
        telemetry.count("net.timeouts")
        return self.config.dead_node_penalty_s, False

    # -- vectorized API (hot path for broadcast evaluation) --------------
    def transfer_delays(self, src: int, dsts: np.ndarray, size_bytes: int) -> np.ndarray:
        """Vectorised :meth:`transfer_delay` for many destinations.

        Hop levels are computed from topology coordinates without Python
        loops; used by the star/tree engines at full machine scale.
        """
        n = self.cluster.n_nodes
        src_c = min(src, n - 1) if src < n else 0
        return self._link_delays(src_c, self._clamped(np.asarray(dsts, dtype=np.int64)), size_bytes)

    def transfer_delays_pairwise(
        self, srcs: np.ndarray, dsts: np.ndarray, size_bytes: int
    ) -> np.ndarray:
        """Vectorised :meth:`transfer_delay` for per-pair (src, dst) links.

        The arithmetic mirrors the scalar path operation-for-operation
        (``overhead + hop_latency + size/bandwidth``, left to right), so
        with jitter disabled the results are bit-identical to calling
        :meth:`transfer_delay` per pair — which is what lets the tree
        engine's vectorised walk reproduce the recursive walk exactly.
        With jitter enabled the draw order differs from per-pair scalar
        calls; callers needing scalar-identical jitter must stay scalar.
        """
        srcs = self._clamped(np.asarray(srcs, dtype=np.int64))
        return self._link_delays(srcs, self._clamped(np.asarray(dsts, dtype=np.int64)), size_bytes)

    def _clamped(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` with every id past the compute nodes read as node 0,
        as :meth:`transfer_delay` maps the master and satellites."""
        n = self.cluster.n_nodes
        return ids if not ids.size or ids.max() < n else np.where(ids < n, ids, 0)

    def _link_delays(
        self, src_c: int | np.ndarray, dst_c: np.ndarray, size_bytes: int
    ) -> np.ndarray:
        """Delays of the links ``src_c -> dst_c`` (clamped compute ids)."""
        cfg = self.config
        topo = self.cluster.topology
        tel = telemetry.active()
        if tel is not None:
            tel.count("net.messages", len(dst_c))
            tel.count("net.bytes", size_bytes * len(dst_c))
        # The layout nests (a board lies in one chassis, a chassis in one
        # rack), so the HopLevel value (SAME_NODE = 0 up to CROSS_RACK =
        # 4) is the number of levels whose index differs.
        hop = (dst_c != src_c).astype(np.intp)
        src_i, dst_i = src_c // topo.nodes_per_board, dst_c // topo.nodes_per_board
        hop += src_i != dst_i
        src_i, dst_i = src_i // topo.boards_per_chassis, dst_i // topo.boards_per_chassis
        hop += src_i != dst_i
        hop += src_i // topo.chassis_per_rack != dst_i // topo.chassis_per_rack
        # one delay per hop level, summed left to right like the scalar path
        wire_s = size_bytes / cfg.bytes_per_second
        per_hop = np.array([cfg.send_overhead_s + lat + wire_s for lat in cfg.hop_latency_s])
        delays = per_hop.take(hop)
        if cfg.jitter_frac:
            delays = delays * (1.0 + cfg.jitter_frac * (2.0 * self._rng.random(delays.shape) - 1.0))
        return delays

    def reachability(self, node_ids: t.Sequence[int]) -> np.ndarray:
        """Boolean liveness mask over ``node_ids``: one read of the
        cluster's ``state`` column.  An id outside the cluster raises
        :class:`~repro.errors.ClusterError`, as
        :meth:`Cluster.is_responsive` does."""
        return self.cluster.responsive(node_ids)
