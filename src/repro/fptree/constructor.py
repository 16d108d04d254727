"""The FP-Tree constructor: leaf location + prediction + rearranging.

Workflow (paper Fig. 3/4): on every communication task the constructor

1. computes which positions of the task's nodelist become leaves
   (:func:`repro.fptree.tree.leaf_positions`, cached per list length);
2. asks the predictor plugin which of the participating nodes are
   expected to fail;
3. rearranges the nodelist so predicted-failed nodes occupy leaf
   positions and healthy nodes occupy inner positions, preserving the
   original relative order within each class (:func:`rearrange`).  The
   placement has a closed form, a handful of numpy calls over the
   task's id array.

The rearranged list is then fed to the ordinary k-ary tree engine —
the FP-Tree is *only* a list permutation, never a different topology.
"""

from __future__ import annotations

import typing as t
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.cluster.node import id_mask, node_array
from repro.errors import ConfigurationError
from repro.fptree.predictor import FailurePredictor
from repro.fptree.tree import leaf_positions
from repro.network.broadcast import BroadcastResult, BroadcastStructure
from repro.network.structures import TreeBroadcast

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.fabric import NetworkFabric


def rearrange(
    nodelist: t.Sequence[int],
    leaf_idx: t.Sequence[int],
    predicted_failed: t.Collection[int],
) -> list[int]:
    """Place predicted-failed nodes on leaf positions (paper Fig. 4c).

    ``leaf_idx`` must hold distinct positions of ``nodelist`` in
    ascending order, as :func:`~repro.fptree.tree.leaf_positions`
    returns them.  Healthy nodes keep their input order on the inner
    positions; the predicted-failed nodes, also in input order, take
    the first ``p`` leaf positions.  When ``p`` exceeds the leaf count
    ``L`` they take every leaf position plus the last ``p - L`` inner
    positions.  An id that occurs twice moves both copies.  With
    nothing predicted the output equals the input.
    """
    order = np.asarray(leaf_idx, dtype=np.intp)
    return _place(node_array(nodelist), order, predicted_failed)[0].tolist()


def _place(
    nodelist: np.ndarray,
    leaf_idx: np.ndarray,
    predicted_failed: t.Collection[int],
) -> tuple[np.ndarray, int]:
    """:func:`rearrange` on an id array, as a read-only array, and how
    many predicted copies it put on leaf positions, ``min(p, L)``.

    Closed form: mark the predicted copies, mark their ``p`` slots, then
    scatter the predicted copies to the slots and the healthy nodes, in
    order, to the other positions.
    """
    predicted = np.fromiter(predicted_failed, dtype=np.int64, count=len(predicted_failed))
    hit = id_mask(nodelist, predicted)
    moved = nodelist[hit]
    p, n_leaves = moved.size, leaf_idx.size
    slot = np.zeros(nodelist.size, dtype=bool)
    slot[leaf_idx[:p]] = True
    if p > n_leaves:
        slot[np.flatnonzero(~slot)[n_leaves - p :]] = True  # the last p - L inner positions
    out = np.empty_like(nodelist)
    out[slot] = moved
    out[~slot] = nodelist[~hit]
    out.flags.writeable = False
    return out, min(p, n_leaves)


@dataclass
class ConstructionStats:
    """Bookkeeping for the paper's placement experiment (Section VII-A)."""

    trees_built: int = 0
    nodes_placed: int = 0
    predicted_total: int = 0
    predicted_on_leaves: int = 0

    @property
    def leaf_placement_ratio(self) -> float:
        """Fraction of predicted-failed nodes that landed on leaves
        (the paper reports 81.7 % for *actually failed* nodes)."""
        if self.predicted_total == 0:
            return 1.0
        return self.predicted_on_leaves / self.predicted_total


#: Construction audit hook: ``(targets, ordered, leaf_idx, predicted)``.
ConstructObserver = t.Callable[
    [t.Sequence[int], t.Sequence[int], t.Sequence[int], t.AbstractSet[int]], None
]


class FPTreeConstructor:
    """Builds FP-ordered nodelists for a given tree width.

    Construction is memoized on ``(targets, predicted-set)`` — the
    (nodelist, width, alert-set) key, with width fixed per instance;
    the targets enter the key as their array's bytes.
    A recurring node set under an unchanged alert set (a job's
    satellite share relayed at launch and again at terminate) skips the
    leaf-location and rearrangement passes entirely; hits still replay
    the construction statistics and audit observers so the Section
    VII-A bookkeeping is indistinguishable from a cache-free run.
    """

    _MEMO_MAX = 64

    def __init__(self, predictor: FailurePredictor, width: int = 32) -> None:
        if width < 2:
            raise ConfigurationError("tree width must be >= 2")
        self.predictor = predictor
        self.width = width
        self.stats = ConstructionStats()
        #: rearrangement audit hooks (chaos invariants; empty otherwise)
        self.construct_observers: list[ConstructObserver] = []
        self._memo: "OrderedDict[tuple, tuple[np.ndarray, np.ndarray, int]]" = OrderedDict()
        #: target count -> target-indexed leaf positions (width is fixed)
        self._leaves: dict[int, np.ndarray] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    def construct(self, root: int, targets: t.Sequence[int]) -> np.ndarray:
        """Return the rearranged *target* list for ``[root] + targets``,
        as a read-only ``int64`` array (see
        :func:`~repro.cluster.node.node_array`).

        The root (the satellite) always keeps position 0; only target
        positions 1..n are permuted.
        """
        targets = node_array(targets)
        if not targets.size:
            return targets
        predicted = self.predictor.predict(targets)
        if not predicted and not self.construct_observers:
            # Nothing to rearrange and nobody auditing: the output is
            # the input (rearrange's documented identity).  Skip the
            # leaf walk and memo bookkeeping — steady-state broadcasts
            # with no live alerts are the overwhelmingly common case,
            # and keeping them out of the memo leaves its 64 slots to
            # the orderings that were actually worth caching.
            self._record(targets, predicted, 0)
            return targets
        key = (targets.tobytes(), frozenset(predicted))
        entry = self._memo.get(key)
        if entry is not None:
            self._memo.move_to_end(key)
            self.memo_hits += 1
            ordered, leaf_idx, on_leaves = entry
            self._record(ordered, predicted, on_leaves)
            for observer in self.construct_observers:
                observer(targets, ordered, leaf_idx, predicted)
            return ordered
        self.memo_misses += 1
        leaf_idx = self._target_leaves(len(targets))
        ordered, on_leaves = _place(targets, leaf_idx, predicted)
        self._record(ordered, predicted, on_leaves)
        for observer in self.construct_observers:
            observer(targets, ordered, leaf_idx, predicted)
        if len(self._memo) >= self._MEMO_MAX:
            self._memo.popitem(last=False)
        self._memo[key] = (ordered, leaf_idx, on_leaves)
        return ordered

    def _target_leaves(self, n_targets: int) -> np.ndarray:
        """Leaf positions of the tree over ``[root] + targets``, indexed
        into ``targets`` (ascending), cached per target count.

        Position 0 (the root) is dropped — it is a leaf only with no
        targets, excluded by the caller — and the rest shift down by one.
        """
        cached = self._leaves.get(n_targets)
        if cached is None:
            cached = np.array(leaf_positions(n_targets + 1, self.width), dtype=np.intp) - 1
            cached.flags.writeable = False
            if len(self._leaves) >= self._MEMO_MAX:
                self._leaves.clear()
            self._leaves[n_targets] = cached
        return cached

    def _record(
        self, ordered: t.Sequence[int], predicted: t.AbstractSet[int], on_leaves: int
    ) -> None:
        st = self.stats
        st.trees_built += 1
        st.nodes_placed += len(ordered)
        st.predicted_total += len(predicted)
        st.predicted_on_leaves += on_leaves


class FPTreeBroadcast(BroadcastStructure):
    """Tree broadcast over an FP-rearranged nodelist.

    Drop-in comparable with the engines of
    :mod:`repro.network.structures`; the Fig. 8 experiments sweep these
    side by side.
    """

    name = "fp-tree"

    def __init__(
        self,
        predictor: FailurePredictor,
        width: int = 32,
        per_target_root_s: float = 0.0,
    ) -> None:
        """The constructed orderings go straight to the tree engine: an
        FP ordering is a fresh permutation whenever its predicted set
        changes, so a per-tree result memo would only miss."""
        self.constructor = FPTreeConstructor(predictor, width)
        #: the tree engine that walks the constructed orderings
        self.engine = TreeBroadcast(width, per_target_root_s=per_target_root_s)

    @property
    def stats(self) -> ConstructionStats:
        return self.constructor.stats

    def simulate(
        self,
        root: int,
        targets: t.Sequence[int],
        size_bytes: int,
        fabric: "NetworkFabric",
        record_arrivals: bool = False,
    ) -> BroadcastResult:
        ordered = self.constructor.construct(root, targets)
        result = self.engine.simulate(root, ordered, size_bytes, fabric, record_arrivals)
        return BroadcastResult(
            structure=self.name,
            makespan_s=result.makespan_s,
            n_targets=result.n_targets,
            failed=result.failed,
            n_timeouts=result.n_timeouts,
            arrivals=result.arrivals,
        )

    def simulate_forest(
        self,
        tasks: t.Sequence[tuple[int, t.Sequence[int]]],
        size_bytes: int,
        fabric: "NetworkFabric",
    ) -> list[BroadcastResult]:
        """FP-construct every part, then batch-evaluate the forest.

        Construction stays per tree (stats, memo, and audit observers
        are per nodelist); only the tree evaluation is shared.
        """
        ordered_tasks = [
            (root, self.constructor.construct(root, targets)) for root, targets in tasks
        ]
        results = self.engine.simulate_forest(ordered_tasks, size_bytes, fabric)
        return [
            BroadcastResult(
                structure=self.name,
                makespan_s=r.makespan_s,
                n_targets=r.n_targets,
                failed=r.failed,
                n_timeouts=r.n_timeouts,
                arrivals=r.arrivals,
            )
            for r in results
        ]
