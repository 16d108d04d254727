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

from repro.cluster.node import UP_CODE, node_array
from repro.errors import ClusterError, ConfigurationError
from repro.fptree.tree import children_bounds
from repro.network.broadcast import BroadcastResult, BroadcastStructure
from repro.network.fabric import DEAD_NODE_PENALTY_S, SEND_OVERHEAD_S, NetworkFabric
from repro.telemetry import facade as telemetry


def _id_list(targets: t.Sequence[int]) -> t.Sequence[int]:
    """``targets`` for a per-id Python walk: an id array converted once,
    so ``failed`` and ``arrivals`` hold Python ints."""
    return targets.tolist() if isinstance(targets, np.ndarray) else targets


class RingBroadcast(BroadcastStructure):
    """Serial relay along the target list."""

    name = "ring"

    def simulate(self, root, targets, size_bytes, fabric, record_arrivals=False):
        targets = _id_list(targets)
        self._validate(targets, size_bytes)
        result = BroadcastResult(self.name, 0.0, len(targets))
        now = 0.0
        prev = root
        for nid in targets:
            if fabric.is_reachable(nid):
                now += fabric.transfer_delay(prev, nid, size_bytes)
                if record_arrivals:
                    result.arrivals[nid] = now
                prev = nid
            else:
                now += DEAD_NODE_PENALTY_S
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
        targets = _id_list(targets)
        self._validate(targets, size_bytes)
        n = len(targets)
        result = BroadcastResult(self.name, 0.0, n)
        if n == 0:
            return result
        ids = np.asarray(targets, dtype=np.int64)
        alive = fabric.reachability(targets)
        delays = fabric.transfer_delays(root, ids, size_bytes)
        durations = np.where(alive, delays, DEAD_NODE_PENALTY_S)
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
        targets = _id_list(targets)
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
        "tel",
        "arrivals",
        "makespan",
        "timeouts",
        "failed",
    )

    def __init__(
        self,
        width: int,
        nodelist: t.Sequence[int],
        size_bytes: int,
        fabric: "NetworkFabric",
        arrivals: dict[int, float] | None,
    ) -> None:
        self.width = width
        self.nodelist = nodelist
        self.size_bytes = size_bytes
        self.fabric = fabric
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
            initiated = ready + (i + 1) * SEND_OVERHEAD_S
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
                detected = initiated + DEAD_NODE_PENALTY_S
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
                now += SEND_OVERHEAD_S + fabric.transfer_delay(parent_id, grandchild, self.size_bytes)
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
                now += DEAD_NODE_PENALTY_S  # serial: gates the remaining adoptions
                now = self.takeover(g_lo, g_hi, parent_id, now, level + 1)
        return now


#: (size, width) shapes kept by :func:`_tree_shape`; a simulated day
#: broadcasts over a few dozen distinct tree sizes
_SHAPE_CACHE_SIZE = 64

#: (sizes, width) merged shapes kept by :func:`_forest_shape`; a
#: simulated day relays over fewer than twenty distinct forests
_FOREST_CACHE_SIZE = 16


class _Shape(t.NamedTuple):
    """Level-order index shape of a tree (or a forest): every non-root
    entry's position ``lo``, its 1-based ``rank`` among its siblings
    and its ``parent``'s position, depth 1 first; depth ``d`` spans
    ``[bounds[d - 1], bounds[d])``."""

    lo: np.ndarray
    rank: np.ndarray
    parent: np.ndarray
    bounds: tuple[int, ...]

    def level(self, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo, rank, parent)`` of depth ``depth`` (views)."""
        a, b = self.bounds[depth - 1], self.bounds[depth]
        return self.lo[a:b], self.rank[a:b], self.parent[a:b]


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _tree_shape(n: int, width: int) -> _Shape:
    """Level-order index shape of the k-ary tree over ``n`` list entries.

    Within a depth, entries run parent-major with parents in position
    order (so ``lo`` ascends), which is the order the sweep observes
    arrivals in; :func:`_range_end` recovers where a child's range
    ends.  The shape depends only on ``(n, width)``, so the sweep reads
    it from this cache instead of redoing the range arithmetic per
    call.  It costs nine bytes per entry (``int32`` positions and
    parents, ranks in the smallest unsigned type holding ``width``),
    and the arrays are read-only.
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
            break
        # Child ranges of every parent at this level, flattened; the
        # index arithmetic mirrors fptree._chunk_bounds.
        k = np.minimum(width, m)
        base = m // k
        extra = m - base * k
        pidx = np.repeat(np.arange(k.size), k)
        j = np.arange(int(k.sum()), dtype=np.int64) - (np.cumsum(k) - k)[pidx]
        c_lo = plo[pidx] + 1 + j * base[pidx] + np.minimum(j, extra[pidx])
        levels.append((c_lo.astype(np.int32), (j + 1).astype(rank_t), plo[pidx].astype(np.int32)))
        plo, phi = c_lo, c_lo + base[pidx] + (j < extra[pidx])
    bounds = tuple(itertools.accumulate((lv[0].size for lv in levels), initial=0))
    columns = []
    for i, dtype in enumerate((np.int32, rank_t, np.int32)):
        column = np.concatenate([lv[i] for lv in levels]) if levels else np.zeros(0, dtype)
        column.flags.writeable = False
        columns.append(column)
    return _Shape(*columns, bounds)


def _range_end(shape: _Shape, depth: int, pos: int, n: int) -> int:
    """End of the range ``[pos, end)`` of the depth-``depth`` child at
    ``pos`` in ``shape`` (over ``n`` entries): its next sibling's
    position, else its parent's end."""
    while depth:
        lo, rank, parent = shape.level(depth)
        e = int(np.searchsorted(lo, pos))
        if e + 1 < lo.size and rank[e + 1] != 1:
            return int(lo[e + 1])
        pos = int(parent[e])
        depth -= 1
    return n


@functools.lru_cache(maxsize=_FOREST_CACHE_SIZE)
def _forest_shape(sizes: tuple[int, ...], width: int) -> _Shape:
    """The cached shapes of trees over ``sizes`` entries merged depth by
    depth (tree-major within a depth), positions shifted into the
    concatenated nodelist.  Like :func:`_tree_shape` the merge depends
    only on its key, so a launch over a forest seen before reads it
    from this cache; its columns are read-only."""
    shapes = [_tree_shape(n, width) for n in sizes]
    offsets = list(itertools.accumulate(sizes[:-1], initial=0))
    parts = [
        (off, depth, shape.level(depth))
        for depth in range(1, max(len(shape.bounds) for shape in shapes))
        for off, shape in zip(offsets, shapes)
        if depth < len(shape.bounds)
    ]
    bounds = [0] * (parts[-1][1] + 1)
    for _, depth, level in parts:
        bounds[depth] += level[0].size
    shift = np.repeat(
        np.array([off for off, _, _ in parts], dtype=np.int32), [lv[0].size for _, _, lv in parts]
    )
    lo, rank, parent = (np.concatenate([lv[i] for _, _, lv in parts]) for i in range(3))
    lo += shift
    parent += shift
    for column in (lo, rank, parent):
        column.flags.writeable = False
    return _Shape(lo, rank, parent, tuple(itertools.accumulate(bounds)))


def _check_targets(fabric: "NetworkFabric", arr: np.ndarray, offsets: np.ndarray) -> None:
    """The scalar path's checks on the targets in ``arr`` (the forest's
    concatenated nodelists, roots at ``offsets``): an unknown target
    raises :class:`ClusterError` (the walk's ``is_reachable``; roots
    are never asked) and a repeat within one tree
    :class:`ConfigurationError` (``BroadcastStructure._validate``).

    The repeat check is O(targets): every entry writes its position at
    its id in the fabric's ``position_scratch`` and reads the slot back.
    Of the entries sharing an id, one read matches (whichever write
    landed) and every other misses, so the misses plus the positions
    they read hold every entry of every shared id; only then are their
    ``(tree, id)`` pairs compared.  The same id in two trees, or a root
    among targets, is no repeat.
    """
    n_ids = fabric.cluster.state.size
    # viewed unsigned, a negative id is past the ids too
    if arr.view(np.uint64).max() >= n_ids:
        targets = np.delete(arr, offsets)
        bad = targets[(targets < 0) | (targets >= n_ids)]
        if bad.size:
            raise ClusterError(f"unknown node id {bad[0]}")
    scratch = fabric.position_scratch
    where = np.arange(arr.size, dtype=np.int32)
    # clip: only a root can be unknown here, and roots are sorted out below
    scratch.put(arr, where, mode="clip")
    read = scratch.take(arr, mode="clip")
    miss = read != where
    if miss.any():
        missed = np.flatnonzero(miss)
        shared = np.union1d(missed, read[missed])
        shared = shared[~np.isin(shared, offsets)]
        tree = np.searchsorted(offsets, shared, side="right")
        pairs = list(zip(tree.tolist(), arr[shared].tolist()))
        if len(set(pairs)) != len(pairs):
            raise ConfigurationError("broadcast target list contains duplicates")


def _run_forest(walks: list[_TreeWalk], arr: np.ndarray, per_target_root_s: float) -> None:
    """Level-order evaluation of the all-alive portion of many trees.

    ``arr`` is the trees' nodelists concatenated, ``int64``, and each
    walk's nodelist is its view of it.  Every level is processed as
    numpy arrays over the cached merged shape (:func:`_forest_shape`)
    of all trees at once; a single tree reads its own shape
    (:func:`_tree_shape`).  Times
    live in one array over ``arr``, so per-tree makespans fall out of
    one ``np.maximum.reduceat``.  Before any delay, :func:`_check_targets`
    rejects what the scalar path rejects.  While no target is down,
    every link's delay comes from one :meth:`NetworkFabric.link_delays`
    call and a level is a gather, two adds and a scatter.  Otherwise
    liveness is one read of the cluster's ``state`` column, carried
    down the fixed shape as a path-alive mask, and only live links get
    delays.  A dead child of a live parent becomes a per-tree *patch*:
    its subtree is left out of the sweep and replayed afterwards
    through the scalar takeover path, in ascending position order —
    which on these trees (contiguous nested ranges, ordered siblings)
    is exactly the recursion's DFS preorder, so ``failed`` ordering
    matches too.
    """
    fabric = walks[0].fabric
    width = walks[0].width
    size_bytes = walks[0].size_bytes
    tel = walks[0].tel
    sizes = [len(w.nodelist) for w in walks]
    offsets = np.fromiter(itertools.accumulate(sizes[:-1], initial=0), np.int64, len(sizes))
    _check_targets(fabric, arr, offsets)
    codes = fabric.hop_codes(arr)
    ready = np.full(arr.size, -np.inf)
    ready[offsets] = [per_target_root_s * (n - 1) for n in sizes]
    # Liveness: one read of the state column, skipped while nothing is
    # down; when every target answers the sweep never looks again.
    up = None
    if fabric.unreachable_ids():
        # clip: only a root can be unknown here, and its read is dropped
        up = fabric.cluster.state.take(arr, mode="clip") == UP_CODE
        up[offsets] = True  # a root's own liveness is never asked
        if up.all():
            up = None
    if len(sizes) == 1:
        forest = _tree_shape(sizes[0], width)
    else:
        forest = _forest_shape(tuple(sizes), width)
    wait = forest.rank * SEND_OVERHEAD_S  # a child's dispatch offset after its parent is ready
    if up is None:
        delays = fabric.link_delays(codes.take(forest.parent), codes.take(forest.lo), size_bytes)
    else:
        reached = np.ones(arr.size, dtype=bool)  # every node on the path from the root answers
    patches: list[tuple[int, int, float, int]] = []
    for level in range(1, len(forest.bounds)):
        a, b = forest.bounds[level - 1], forest.bounds[level]
        lo, parent = forest.lo[a:b], forest.parent[a:b]
        arrival = ready.take(parent)
        arrival += wait[a:b]  # the dispatch time, until the delay is added
        if up is None:
            arrival += delays[a:b]
        else:
            answers = up.take(lo)
            on_path = reached.take(parent)
            live = on_path & answers
            reached.put(lo, live)
            for i in np.flatnonzero(on_path & ~answers).tolist():
                patches.append((int(lo[i]), int(arr[parent[i]]), float(arrival[i]), level))
            if not live.all():
                if not live.any():
                    break
                lo, parent, arrival = lo[live], parent[live], arrival[live]
            arrival += fabric.link_delays(codes.take(parent), codes.take(lo), size_bytes)
        ready.put(lo, arrival)
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
        if isinstance(walk.nodelist, np.ndarray):
            # the scalar takeover walks Python ints, converted once per tree
            walk.nodelist = walk.nodelist.tolist()
        p_lo -= int(offsets[t_i])
        p_hi = _range_end(_tree_shape(sizes[t_i], width), p_level, p_lo, sizes[t_i])
        walk.timeouts += 1
        walk.failed.append(walk.nodelist[p_lo])
        walk.takeover(p_lo, p_hi, parent_id, initiated_s + DEAD_NODE_PENALTY_S, p_level)


class TreeBroadcast(BroadcastStructure):
    """K-ary tree relay with asynchronous dispatch and synchronous takeover.

    The tree shape is the implicit structure of
    :func:`repro.fptree.tree.build_tree` over ``[root] + targets``;
    engines walk index ranges instead of materialising nodes.  A
    broadcast to at least :attr:`FAST_PATH_MIN_TARGETS` targets takes a
    vectorised level-order walk whose float arithmetic matches the
    recursion operation-for-operation (same results, orders of
    magnitude faster at machine scale).
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
        if len(targets) >= self.FAST_PATH_MIN_TARGETS:
            return self._sweep([(root, targets)], size_bytes, fabric, record_arrivals)[0]
        targets = _id_list(targets)
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
        per-level numpy dispatches.  Falls back to sequential
        :meth:`simulate` calls when the combined forest is too small to
        batch.
        """
        total = sum(len(targets) for _, targets in tasks)
        if total < self.FAST_PATH_MIN_TARGETS:
            return [self.simulate(root, targets, size_bytes, fabric) for root, targets in tasks]
        return self._sweep(tasks, size_bytes, fabric)

    def _sweep(self, tasks, size_bytes, fabric, record_arrivals=False):
        """One :func:`_run_forest` level sweep over every non-empty tree."""
        # the payload size only: _run_forest rejects duplicate targets
        self._validate((), size_bytes)
        results = [BroadcastResult(self.name, 0.0, len(targets)) for _, targets in tasks]
        trees = [(r, root, targets) for r, (root, targets) in zip(results, tasks) if len(targets)]
        if not trees:
            return results
        # one copy of every id, each tree's root first; the walks are views
        parts = [part for _, root, targets in trees for part in ((root,), node_array(targets))]
        arr = np.concatenate(parts, dtype=np.int64)
        walks: list[_TreeWalk] = []
        off = 0
        for result, _, targets in trees:
            nodelist = arr[off : off + 1 + len(targets)]
            off += nodelist.size
            arrivals = result.arrivals if record_arrivals else None
            walks.append(_TreeWalk(self.width, nodelist, size_bytes, fabric, arrivals))
        _run_forest(walks, arr, self.per_target_root_s)
        for (result, _, _), walk in zip(trees, walks):
            result.makespan_s = walk.makespan
            result.failed = tuple(walk.failed)
            result.n_timeouts = walk.timeouts
        return results
