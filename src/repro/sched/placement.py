"""Placement policies: which free nodes a job should receive.

The default allocator is first-fit-by-id (the paper's setting and the
byte-stable baseline).  This module adds a *topology-aware* policy in
the spirit of Vardas et al.: candidate node sets are scored by
hop-level compactness (same board < same chassis < same rack <
cross-rack) and the selection steers away from nodes the monitoring
layer has alert-flagged — the same FP-Tree alert feed ESLURM uses to
place fragile nodes at broadcast-tree leaves.

Two guarantees the oracle layer pins:

* **compactness** — the mean pairwise hop level of a topology-aware
  selection never exceeds first-fit's on the same pool state;
* **clean-first** — an alert-flagged node is only ever selected when no
  feasible all-clean set exists (tracked in :attr:`PlacementStats`).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from repro.cluster.topology import Topology


def placement_pair_counts(nodes: t.Sequence[int], topology: Topology) -> dict[int, int]:
    """Pairs of ``nodes`` at each hop level, computed in O(n).

    Grouping by board/chassis/rack turns the O(n^2) pairwise walk into
    three dictionary passes: ``C(c, 2)`` pairs share a container of
    size ``c``, and subtracting nested containers leaves the pairs whose
    *tightest* shared container is that level.
    """

    def pairs_within(size: int) -> int:
        counts: dict[int, int] = {}
        for nid in nodes:
            key = nid // size
            counts[key] = counts.get(key, 0) + 1
        return sum(c * (c - 1) // 2 for c in counts.values())

    total = len(nodes) * (len(nodes) - 1) // 2
    board = pairs_within(topology.nodes_per_board)
    chassis = pairs_within(topology.nodes_per_chassis)
    rack = pairs_within(topology.nodes_per_rack)
    return {
        1: board,  # SAME_BOARD
        2: chassis - board,  # SAME_CHASSIS
        3: rack - chassis,  # SAME_RACK
        4: total - rack,  # CROSS_RACK
    }


def placement_score(nodes: t.Sequence[int], topology: Topology) -> float:
    """Mean pairwise hop level of a node set (lower = more compact).

    Invariant under rack relabelling: permuting whole racks preserves
    every within-board/chassis/rack group size, hence every pair count.
    """
    n = len(nodes)
    if n < 2:
        return 0.0
    by_level = placement_pair_counts(nodes, topology)
    total = n * (n - 1) // 2
    return sum(level * count for level, count in by_level.items()) / total


@dataclass
class PlacementStats:
    """Counters a placement policy accumulates across selections."""

    selections: int = 0
    flagged_selected: int = 0
    #: selections that used a flagged node while an all-clean feasible
    #: set existed — the oracle asserts this stays zero
    flagged_despite_clean: int = 0
    score_sum: float = 0.0

    @property
    def mean_score(self) -> float:
        return self.score_sum / self.selections if self.selections else 0.0


class PlacementPolicy:
    """Base: pick ``k`` node ids out of the free set."""

    name = "placement"

    def select(self, free: t.AbstractSet[int], k: int) -> tuple[int, ...] | None:
        """``k`` chosen ids, or ``None`` when the free set is too small."""
        raise NotImplementedError


class TopologyAwarePlacement(PlacementPolicy):
    """Hop-compact, alert-averse selection.

    Args:
        topology: the machine's rack/chassis/board layout.
        alert_source: where flagged node ids come from — an object with
            a ``predicted_failed(among)`` method (the cluster's
            :class:`~repro.cluster.monitoring.HealthMonitor`), a
            callable returning an id collection, or ``None`` (no
            steering, pure compactness).
    """

    name = "topology"

    def __init__(
        self,
        topology: Topology,
        alert_source: t.Any = None,
    ) -> None:
        self.topology = topology
        self.alert_source = alert_source
        self.stats = PlacementStats()

    def _flagged(self, free: t.AbstractSet[int]) -> set[int]:
        src = self.alert_source
        if src is None:
            return set()
        if hasattr(src, "predicted_failed"):
            return set(src.predicted_failed(free))
        return set(src()) & set(free)

    def select(self, free: t.AbstractSet[int], k: int) -> tuple[int, ...] | None:
        if len(free) < k or k <= 0:
            return None
        flagged = self._flagged(free)
        clean = sorted(n for n in free if n not in flagged)
        if len(clean) >= k:
            chosen = self._compact_pick(clean, k)
        else:
            # Not enough clean nodes: take them all, overflow into the
            # flagged set (never refuse a feasible allocation).
            overflow = self._compact_pick(sorted(flagged), k - len(clean))
            chosen = tuple(clean) + overflow
        self.stats.selections += 1
        n_flagged = sum(1 for nid in chosen if nid in flagged)
        if n_flagged:
            self.stats.flagged_selected += n_flagged
            if len(clean) >= k:
                self.stats.flagged_despite_clean += 1
        self.stats.score_sum += placement_score(chosen, self.topology)
        return chosen

    def _compact_pick(self, candidates: list[int], k: int) -> tuple[int, ...]:
        """The better-scoring of the container pick and plain first-fit.

        The container search is greedy (tightest-container tie-breaks
        can lose to the k smallest ids on pathological free sets), so
        the first-fit candidate over the same set is kept as a floor:
        the returned pick never scores worse than first-fit would on the
        identical pool state — the compactness guarantee the oracle
        layer pins.
        """
        pick = self._container_pick(candidates, k)
        baseline = tuple(candidates[:k])
        if placement_score(baseline, self.topology) < placement_score(pick, self.topology):
            return baseline
        return pick

    def _container_pick(self, candidates: list[int], k: int) -> tuple[int, ...]:
        """Best-fit container search over ``candidates`` (sorted ids).

        Try the smallest hierarchy level whose single container can hold
        ``k`` (board, then chassis, then rack), picking the *tightest*
        such container (fewest free nodes, lowest index on ties).  When
        no single rack fits, pack greedily: fullest racks first so the
        selection spans as few racks as possible.
        """
        topo = self.topology
        for size in (topo.nodes_per_board, topo.nodes_per_chassis, topo.nodes_per_rack):
            groups: dict[int, list[int]] = {}
            for nid in candidates:
                groups.setdefault(nid // size, []).append(nid)
            feasible = [(len(ids), idx) for idx, ids in groups.items() if len(ids) >= k]
            if feasible:
                _, idx = min(feasible)
                return tuple(groups[idx][:k])
        # Cross-rack: fewest racks via fullest-first greedy packing.
        by_rack: dict[int, list[int]] = {}
        for nid in candidates:
            by_rack.setdefault(nid // topo.nodes_per_rack, []).append(nid)
        order = sorted(by_rack, key=lambda r: (-len(by_rack[r]), r))
        chosen: list[int] = []
        for rack in order:
            take = min(k - len(chosen), len(by_rack[rack]))
            chosen.extend(by_rack[rack][:take])
            if len(chosen) == k:
                break
        return tuple(chosen)


#: registry for config-by-name wiring (CLI, bench tiers, chaos scenarios)
PLACEMENT_NAMES = ("first-fit", "topology")


def build_placement(
    name: str,
    topology: Topology | None = None,
    alert_source: t.Any = None,
) -> PlacementPolicy | None:
    """``None`` for first-fit (the pool's native fast path), else a policy."""
    if name == "first-fit":
        return None
    if name == "topology":
        return TopologyAwarePlacement(topology or Topology(), alert_source=alert_source)
    from repro.errors import ConfigurationError

    raise ConfigurationError(
        f"unknown placement {name!r}; choose from {list(PLACEMENT_NAMES)}"
    )
