"""The four baseline broadcast structures of Section VII-A.

* **Ring** — the payload is relayed node-to-node in list order; fully
  serial, so every dead node's timeout delays *everything* downstream.
* **Star** — the root contacts every target itself over a bounded pool
  of synchronous connection workers; dead targets pin a worker for the
  full timeout, so latency grows with the failure ratio.
* **Shared memory** — the root posts once to a shared segment and nodes
  pull it; dead nodes simply never pull, leaving latency flat in the
  failure ratio (exactly the paper's observation).
* **Tree** — the k-ary tree of :mod:`repro.fptree.tree` with
  asynchronous child dispatch.  A dead *leaf* only costs its parent a
  (parallel) timeout; a dead *inner* node delays its whole subtree by
  the timeout **plus** the parent's slow synchronous takeover of the
  orphaned grandchildren — the "redesign" cost the paper describes.

The FP-Tree engine in :mod:`repro.fptree.constructor` reuses the tree
engine on a rearranged nodelist.
"""

from __future__ import annotations

import functools
import itertools
import typing as t

import numpy as np

from repro.cluster.node import UP_CODE
from repro.errors import ClusterError, ConfigurationError
from repro.fptree.tree import children_bounds
from repro.network.broadcast import BroadcastResult, BroadcastStructure
from repro.telemetry import facade as telemetry

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.fabric import NetworkFabric


class RingBroadcast(BroadcastStructure):
    """Serial relay along the target list."""

    name = "ring"

    def simulate(self, root, targets, size_bytes, fabric, record_arrivals=False):
        self._validate(targets, size_bytes)
        result = BroadcastResult(self.name, 0.0, len(targets))
        now = 0.0
        prev = root
        penalty = fabric.config.dead_node_penalty_s
        for nid in targets:
            if fabric.is_reachable(nid):
                now += fabric.transfer_delay(prev, nid, size_bytes)
                if record_arrivals:
                    result.arrivals[nid] = now
                prev = nid
            else:
                now += penalty
                result.n_timeouts += 1
                result.failed += (nid,)
        result.makespan_s = now
        return result


class StarBroadcast(BroadcastStructure):
    """Root-to-everyone over ``concurrency`` synchronous workers.

    The makespan uses the standard list-scheduling bound
    ``max(longest_task, total_work / workers) (+ one latency)`` which is
    exact to within one task length for near-uniform task sizes — the
    regime these broadcasts are in.
    """

    name = "star"

    def __init__(self, concurrency: int = 64) -> None:
        if concurrency < 1:
            raise ConfigurationError("star concurrency must be >= 1")
        self.concurrency = concurrency

    def simulate(self, root, targets, size_bytes, fabric, record_arrivals=False):
        self._validate(targets, size_bytes)
        n = len(targets)
        result = BroadcastResult(self.name, 0.0, n)
        if n == 0:
            return result
        ids = np.asarray(targets, dtype=np.int64)
        alive = fabric.reachability(targets)
        delays = fabric.transfer_delays(root, ids, size_bytes)
        penalty = fabric.config.dead_node_penalty_s
        durations = np.where(alive, delays, penalty)
        result.n_timeouts = int((~alive).sum())
        result.failed = tuple(int(i) for i in ids[~alive])
        total = float(durations.sum())
        longest = float(durations.max())
        result.makespan_s = max(longest, total / self.concurrency)
        if record_arrivals:
            # Approximate arrival: position in the work list over the pool.
            finish = np.cumsum(durations) / self.concurrency
            finish = np.maximum(finish, delays)
            for nid, ok, at in zip(targets, alive, finish):
                if ok:
                    result.arrivals[int(nid)] = float(at)
        return result


class SharedMemoryBroadcast(BroadcastStructure):
    """Post-once / pull-many over a shared segment.

    ``poll_interval_s`` is the mean delay before a node notices the new
    payload.  Failed nodes never pull; nobody waits for them, so the
    makespan is independent of the failure ratio.
    """

    name = "shared-memory"

    def __init__(self, poll_interval_s: float = 0.5, post_overhead_s: float = 0.01) -> None:
        if poll_interval_s <= 0 or post_overhead_s < 0:
            raise ConfigurationError("invalid shared-memory parameters")
        self.poll_interval_s = poll_interval_s
        self.post_overhead_s = post_overhead_s

    def simulate(self, root, targets, size_bytes, fabric, record_arrivals=False):
        self._validate(targets, size_bytes)
        n = len(targets)
        result = BroadcastResult(self.name, 0.0, n)
        if n == 0:
            result.makespan_s = self.post_overhead_s
            return result
        ids = np.asarray(targets, dtype=np.int64)
        alive = fabric.reachability(targets)
        result.failed = tuple(int(i) for i in ids[~alive])
        fetch = fabric.transfer_delays(root, ids, size_bytes)
        # Worst poll phase dominates; pulls happen in parallel.
        arrivals = self.post_overhead_s + self.poll_interval_s + fetch
        live_arrivals = arrivals[alive]
        result.makespan_s = float(live_arrivals.max()) if live_arrivals.size else self.post_overhead_s
        if record_arrivals:
            for nid, ok, at in zip(targets, alive, arrivals):
                if ok:
                    result.arrivals[int(nid)] = float(at)
        return result


class _TreeWalk:
    """Shared mutable state for one tree-broadcast evaluation.

    Holds the recursive (scalar) walk the engine always used; the
    vectorised level sweep (:func:`_run_forest`, over one tree or many)
    delegates the rare dead subtrees back to these exact methods so
    both paths produce bit-identical results, and hands each walk its
    per-tree totals.
    """

    __slots__ = (
        "width",
        "nodelist",
        "size_bytes",
        "fabric",
        "overhead",
        "penalty",
        "tel",
        "arrivals",
        "makespan",
        "timeouts",
        "failed",
    )

    def __init__(
        self,
        width: int,
        nodelist: list[int],
        size_bytes: int,
        fabric: "NetworkFabric",
        arrivals: dict[int, float] | None,
    ) -> None:
        self.width = width
        self.nodelist = nodelist
        self.size_bytes = size_bytes
        self.fabric = fabric
        self.overhead = fabric.config.send_overhead_s
        self.penalty = fabric.config.dead_node_penalty_s
        self.tel = telemetry.active()
        self.arrivals = arrivals
        self.makespan = 0.0
        self.timeouts = 0
        self.failed: list[int] = []

    def dispatch_children(self, lo: int, hi: int, parent_id: int, ready: float, level: int) -> None:
        """Asynchronous fan-out from a live parent at time ``ready``."""
        fabric = self.fabric
        nodelist = self.nodelist
        tel = self.tel
        for i, (c_lo, c_hi) in enumerate(children_bounds(lo, hi, self.width)):
            child = nodelist[c_lo]
            initiated = ready + (i + 1) * self.overhead
            if fabric.is_reachable(child):
                arrival = initiated + fabric.transfer_delay(parent_id, child, self.size_bytes)
                if arrival > self.makespan:
                    self.makespan = arrival
                if tel is not None:
                    tel.observe(f"net.tree.level{level}.arrival_s", arrival)
                if self.arrivals is not None:
                    self.arrivals[child] = arrival
                self.dispatch_children(c_lo, c_hi, child, arrival, level + 1)
            else:
                self.timeouts += 1
                self.failed.append(child)
                # Detection itself does not gate any delivery (makespan
                # is the last *successful* delivery); the takeover of
                # the orphaned grandchildren starts after the timeout.
                detected = initiated + self.penalty
                self.takeover(c_lo, c_hi, parent_id, detected, level)

    def takeover(self, lo: int, hi: int, parent_id: int, start: float, level: int) -> float:
        """Synchronous serial adoption of a dead child's children.

        Returns the time the parent finishes the whole takeover;
        nested takeovers consume the parent's serial time too.
        """
        fabric = self.fabric
        nodelist = self.nodelist
        tel = self.tel
        now = start
        for g_lo, g_hi in children_bounds(lo, hi, self.width):
            grandchild = nodelist[g_lo]
            if fabric.is_reachable(grandchild):
                now += self.overhead + fabric.transfer_delay(parent_id, grandchild, self.size_bytes)
                if now > self.makespan:
                    self.makespan = now
                if tel is not None:
                    tel.observe(f"net.tree.level{level + 1}.arrival_s", now)
                if self.arrivals is not None:
                    self.arrivals[grandchild] = now
                self.dispatch_children(g_lo, g_hi, grandchild, now, level + 2)
            else:
                self.timeouts += 1
                self.failed.append(grandchild)
                now += self.penalty  # serial: gates the remaining adoptions
                now = self.takeover(g_lo, g_hi, parent_id, now, level + 1)
        return now


#: (size, width) shapes kept by :func:`_tree_shape`; a simulated day
#: broadcasts over a few dozen distinct tree sizes
_SHAPE_CACHE_SIZE = 64

#: per depth, the ``(lo, rank)`` arrays of :func:`_tree_shape`
_Shape = tuple[tuple[np.ndarray, np.ndarray], ...]


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _tree_shape(n: int, width: int) -> _Shape:
    """Level-order index shape of the k-ary tree over ``n`` list entries.

    One ``(lo, rank)`` pair per depth 1, 2, ...: for every child at that
    depth, its nodelist position and its 1-based rank among its
    siblings (the ``j + 1`` of its dispatch time).  Entries run
    parent-major with parents in position order (so ``lo`` ascends),
    which is the order the sweep observes arrivals in; a child's parent
    sits just before its first sibling, at ``lo[e + 1 - rank[e]] - 1``,
    and :func:`_range_end` recovers where its range ends.
    The shape depends only on ``(n, width)``, so the sweep reads it from
    this cache instead of redoing the range arithmetic per call.  It
    costs five bytes per entry (``int32`` positions, ranks in the
    smallest unsigned type holding ``width``), and the arrays are
    read-only.
    """
    rank_t = np.min_scalar_type(width)
    levels = []
    plo = np.zeros(1, dtype=np.int64)
    phi = np.array([n], dtype=np.int64)
    while True:
        m = phi - plo - 1  # descendant count per parent
        has = m > 0
        plo, phi, m = plo[has], phi[has], m[has]
        if not plo.size:
            return tuple(levels)
        # Child ranges of every parent at this level, flattened; the
        # index arithmetic mirrors fptree._chunk_bounds.
        k = np.minimum(width, m)
        base = m // k
        extra = m - base * k
        pidx = np.repeat(np.arange(k.size), k)
        j = np.arange(int(k.sum()), dtype=np.int64) - (np.cumsum(k) - k)[pidx]
        c_lo = plo[pidx] + 1 + j * base[pidx] + np.minimum(j, extra[pidx])
        level = (c_lo.astype(np.int32), (j + 1).astype(rank_t))
        for a in level:
            a.flags.writeable = False
        levels.append(level)
        plo, phi = c_lo, c_lo + base[pidx] + (j < extra[pidx])



def _range_end(shape: _Shape, depth: int, pos: int, n: int) -> int:
    """End of the range ``[pos, end)`` of the depth-``depth`` child at
    ``pos`` in ``shape`` (over ``n`` entries): its next sibling's
    position, else its parent's end."""
    while depth:
        lo, rank = shape[depth - 1]
        e = int(np.searchsorted(lo, pos))
        if e + 1 < lo.size and rank[e + 1] != 1:
            return int(lo[e + 1])
        pos = int(lo[e + 1 - int(rank[e])]) - 1
        depth -= 1
    return n


def _forest_levels(
    shapes: list[_Shape], offsets: np.ndarray
) -> t.Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each depth's ``(lo, rank)`` over the whole forest: the trees'
    cached levels concatenated tree-major, ``lo`` shifted to positions
    in the concatenated nodelist."""
    if len(shapes) == 1:
        yield from shapes[0]
        return
    for depth in range(max(map(len, shapes))):
        parts = [(off, shape[depth]) for off, shape in zip(offsets, shapes) if len(shape) > depth]
        shift = np.repeat([off for off, _ in parts], [lv[0].size for _, lv in parts])
        yield (
            np.concatenate([lv[0] for _, lv in parts]) + shift,
            np.concatenate([lv[1] for _, lv in parts]),
        )


def _run_forest(walks: list[_TreeWalk], per_target_root_s: float) -> None:
    """Level-order evaluation of the all-alive portion of many trees.

    Every level is processed as numpy arrays over the cached tree
    shapes (:func:`_tree_shape`) of all trees at once; a single tree is
    simply a forest of one.  Times live in one array over the trees'
    concatenated nodelists, so per-tree makespans fall out of one
    ``np.maximum.reduceat``.  Liveness is one read of the cluster's
    ``state`` column per forest, carried down the fixed shape as a
    path-alive mask.  A dead child of a live parent becomes a per-tree
    *patch*: its subtree is left out of the sweep and replayed
    afterwards through the scalar takeover path, in ascending position
    order — which on these trees (contiguous nested ranges, ordered
    siblings) is exactly the recursion's DFS preorder, so ``failed``
    ordering matches too.  Before any delay is computed, an unknown
    target raises :class:`ClusterError` and a repeated one
    :class:`ConfigurationError`, as on the scalar path.
    """
    fabric = walks[0].fabric
    overhead = walks[0].overhead
    width = walks[0].width
    size_bytes = walks[0].size_bytes
    tel = walks[0].tel
    sizes = [len(w.nodelist) for w in walks]
    offsets = np.fromiter(itertools.accumulate(sizes[:-1], initial=0), np.int64, len(sizes))
    arr = np.fromiter(
        itertools.chain.from_iterable(w.nodelist for w in walks), dtype=np.int64, count=sum(sizes)
    )
    state = fabric.cluster.state
    if arr.min() < 0 or arr.max() >= state.size:
        # the scalar walk's is_reachable rejects unknown targets; roots
        # are never asked
        targets = np.delete(arr, offsets)
        bad = targets[(targets < 0) | (targets >= state.size)]
        if bad.size:
            raise ClusterError(f"unknown node id {bad[0]}")
    # BroadcastStructure._validate's duplicate check, without a set of
    # Python ints per tree: a tree's targets must mark n - 1 ids
    seen = np.zeros(state.size, dtype=bool)
    for off, n in zip(offsets.tolist(), sizes):
        ids = arr[off + 1 : off + n]
        seen[ids] = True
        if np.count_nonzero(seen) != n - 1:
            raise ConfigurationError("broadcast target list contains duplicates")
        seen[ids] = False
    ready = np.full(arr.size, -np.inf)
    ready[offsets] = [per_target_root_s * (n - 1) for n in sizes]
    # Liveness: one read of the state column, skipped while nothing is
    # down; when every target answers the sweep never looks again.
    reached = None
    if fabric.unreachable_ids():
        # clip: only a root can be unknown here, and its read is dropped
        up = state.take(arr, mode="clip") == UP_CODE
        up[offsets] = True  # a root's own liveness is never asked
        if not up.all():
            # per position: every node on the path from the root answers
            reached = np.ones(arr.size, dtype=bool)
    shapes = [_tree_shape(n, width) for n in sizes]
    patches: list[tuple[int, int, float, int]] = []
    for level, (lo, rank) in enumerate(_forest_levels(shapes, offsets), 1):
        parent = lo[np.arange(1, lo.size + 1) - rank] - 1
        child = arr[lo]
        parent_ids = arr[parent]
        initiated = ready[parent] + rank * overhead
        if reached is not None:
            answers = up[lo]
            on_path = reached[parent]
            live = on_path & answers
            reached[lo] = live
            lost = np.flatnonzero(on_path & ~answers)
            for i in lost.tolist():
                patches.append((int(lo[i]), int(parent_ids[i]), float(initiated[i]), level))
            if not live.all():
                if not live.any():
                    break
                lo, child = lo[live], child[live]
                parent_ids, initiated = parent_ids[live], initiated[live]
        arrival = initiated + fabric.transfer_delays_pairwise(parent_ids, child, size_bytes)
        ready[lo] = arrival
        if tel is not None:
            tel.observe_many(f"net.tree.level{level}.arrival_s", arrival)
    ready[offsets] = -np.inf  # a root's ready time is not a delivery
    peaks = np.maximum.reduceat(ready, offsets).tolist()
    for walk, off, peak in zip(walks, offsets.tolist(), peaks):
        walk.makespan = peak if peak > 0.0 else 0.0
        if walk.arrivals is not None:
            times = ready[off + 1 : off + len(walk.nodelist)]
            got = np.flatnonzero(times > -np.inf)
            walk.arrivals.update(zip(arr[off + 1 + got].tolist(), times[got].tolist()))
    for p_lo, parent_id, initiated_s, p_level in sorted(patches):
        t_i = int(np.searchsorted(offsets, p_lo, side="right")) - 1
        walk = walks[t_i]
        p_lo -= int(offsets[t_i])
        p_hi = _range_end(shapes[t_i], p_level, p_lo, sizes[t_i])
        walk.timeouts += 1
        walk.failed.append(walk.nodelist[p_lo])
        walk.takeover(p_lo, p_hi, parent_id, initiated_s + walk.penalty, p_level)


class TreeBroadcast(BroadcastStructure):
    """K-ary tree relay with asynchronous dispatch and synchronous takeover.

    The tree shape is the implicit structure of
    :func:`repro.fptree.tree.build_tree` over ``[root] + targets``;
    engines walk index ranges instead of materialising nodes.  Large
    jitter-free broadcasts take a vectorised level-order walk whose
    float arithmetic matches the recursion operation-for-operation
    (same results, orders of magnitude faster at machine scale).
    """

    name = "tree"

    #: below this many targets the per-level numpy batching costs more
    #: than the recursion it replaces
    FAST_PATH_MIN_TARGETS = 64

    def __init__(self, width: int = 32, per_target_root_s: float = 0.0) -> None:
        """Args:
        width: fan-out of every tree level.
        per_target_root_s: serial root-side CPU per *target* (e.g.
            per-node launch credentials); this is the work the ESLURM
            satellite layer parallelises away from the master.
        """
        if width < 2:
            raise ConfigurationError("tree width must be >= 2")
        if per_target_root_s < 0:
            raise ConfigurationError("per-target root cost cannot be negative")
        self.width = width
        self.per_target_root_s = per_target_root_s

    def simulate(self, root, targets, size_bytes, fabric, record_arrivals=False):
        # Jitter draws RNG per scalar transfer, so only the jitter-free
        # configuration is safe to batch.
        if len(targets) >= self.FAST_PATH_MIN_TARGETS and fabric.config.jitter_frac == 0.0:
            return self._sweep([(root, targets)], size_bytes, fabric, record_arrivals)[0]
        self._validate(targets, size_bytes)
        result = BroadcastResult(self.name, 0.0, len(targets))
        if not targets:
            return result
        nodelist = [root, *targets]
        walk = _TreeWalk(
            self.width, nodelist, size_bytes, fabric, result.arrivals if record_arrivals else None
        )
        walk.dispatch_children(0, len(nodelist), root, self.per_target_root_s * len(targets), 1)
        result.makespan_s = walk.makespan
        result.failed = tuple(walk.failed)
        result.n_timeouts = walk.timeouts
        return result

    def simulate_forest(self, tasks, size_bytes, fabric):
        """Evaluate many independent trees over the same fabric at once.

        Result list matches ``tasks`` (one :class:`BroadcastResult` per
        ``(root, targets)``) and every entry is bit-identical to a
        standalone :meth:`simulate` call; the trees only share the
        per-level numpy dispatches.  Falls back to sequential scalar
        evaluation under jitter (per-transfer RNG draws must keep their
        order) or when the combined forest is too small to batch.
        """
        total = sum(len(targets) for _, targets in tasks)
        if fabric.config.jitter_frac != 0.0 or total < self.FAST_PATH_MIN_TARGETS:
            return [self.simulate(root, targets, size_bytes, fabric) for root, targets in tasks]
        return self._sweep(tasks, size_bytes, fabric)

    def _sweep(self, tasks, size_bytes, fabric, record_arrivals=False):
        """One :func:`_run_forest` level sweep over every non-empty tree."""
        # the payload size only: _run_forest rejects duplicate targets
        self._validate((), size_bytes)
        results: list[BroadcastResult] = []
        walked: list[tuple[BroadcastResult, _TreeWalk]] = []
        for root, targets in tasks:
            result = BroadcastResult(self.name, 0.0, len(targets))
            results.append(result)
            if targets:
                arrivals = result.arrivals if record_arrivals else None
                walk = _TreeWalk(self.width, [root, *targets], size_bytes, fabric, arrivals)
                walked.append((result, walk))
        if walked:
            _run_forest([walk for _, walk in walked], self.per_target_root_s)
        for result, walk in walked:
            result.makespan_s = walk.makespan
            result.failed = tuple(walk.failed)
            result.n_timeouts = walk.timeouts
        return results
