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

import typing as t

import numpy as np

from repro.errors import ConfigurationError
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


def _run_forest(walks: list[_TreeWalk], per_target_root_s: float) -> None:
    """Level-order evaluation of the all-alive portion of many trees.

    Every level is processed as numpy arrays (child-range arithmetic,
    pairwise delays, histogram observation) shared by all trees; a
    single tree is simply a forest of one.  Children are generated
    parent-major and parents stay tree-major, so every level's arrays
    are contiguous per tree and per-tree makespans (and arrivals, for
    walks that record them) fall out of slices.  Dead children become
    per-tree *patches*: their subtrees are excluded from the sweep and
    replayed afterwards through the scalar takeover path, in ascending
    position order — which on these trees (contiguous nested ranges,
    ordered siblings) is exactly the recursion's DFS preorder, so
    ``failed`` ordering matches too.
    """
    fabric = walks[0].fabric
    overhead = walks[0].overhead
    width = walks[0].width
    size_bytes = walks[0].size_bytes
    tel = walks[0].tel
    n_trees = len(walks)
    offsets = np.zeros(n_trees, dtype=np.int64)
    all_nodes: list[int] = []
    for i, walk in enumerate(walks):
        offsets[i] = len(all_nodes)
        all_nodes.extend(walk.nodelist)
    arr = np.asarray(all_nodes, dtype=np.int64)
    down = fabric.unreachable_ids()
    down_arr = np.fromiter(down, dtype=np.int64, count=len(down)) if down else None
    patches: list[tuple[int, int, int, int, float, int]] = []
    plo = offsets.copy()
    phi = offsets + np.array([len(w.nodelist) for w in walks], dtype=np.int64)
    pid = arr[plo]
    pready = np.array(
        [per_target_root_s * (len(w.nodelist) - 1) for w in walks], dtype=np.float64
    )
    tid = np.arange(n_trees, dtype=np.int64)
    makespans = np.zeros(n_trees, dtype=np.float64)
    level = 1
    while plo.size:
        m = phi - plo - 1  # descendant count per live parent
        has = m > 0
        if not has.all():
            plo, phi, pid, pready, tid, m = (
                plo[has], phi[has], pid[has], pready[has], tid[has], m[has]
            )
        if not plo.size:
            break
        # Child ranges of every parent at this level, flattened; the
        # index arithmetic mirrors fptree._chunk_bounds.
        k = np.minimum(width, m)
        base = m // k
        extra = m - base * k
        total = int(k.sum())
        pidx = np.repeat(np.arange(k.size), k)
        offs = np.cumsum(k) - k
        j = np.arange(total, dtype=np.int64) - offs[pidx]
        c_lo = plo[pidx] + 1 + j * base[pidx] + np.minimum(j, extra[pidx])
        c_hi = c_lo + base[pidx] + (j < extra[pidx])
        child = arr[c_lo]
        initiated = pready[pidx] + (j + 1) * overhead
        parent_ids = pid[pidx]
        t_child = tid[pidx]
        if down_arr is not None:
            dead = np.isin(child, down_arr)
            if dead.any():
                for i in np.nonzero(dead)[0]:
                    patches.append(
                        (
                            int(t_child[i]), int(c_lo[i]), int(c_hi[i]),
                            int(parent_ids[i]), float(initiated[i]), level,
                        )
                    )
                live = ~dead
                c_lo = c_lo[live]
                c_hi = c_hi[live]
                child = child[live]
                initiated = initiated[live]
                parent_ids = parent_ids[live]
                t_child = t_child[live]
        if child.size:
            delays = fabric.transfer_delays_pairwise(parent_ids, child, size_bytes)
            arrival = initiated + delays
            # t_child is sorted (tree-major level arrays): slice maxima.
            bounds = np.searchsorted(t_child, np.arange(n_trees + 1))
            for i, walk in enumerate(walks):
                s, e = int(bounds[i]), int(bounds[i + 1])
                if e > s:
                    peak = float(arrival[s:e].max())
                    if peak > makespans[i]:
                        makespans[i] = peak
                    if walk.arrivals is not None:
                        walk.arrivals.update(zip(child[s:e].tolist(), arrival[s:e].tolist()))
            if tel is not None:
                tel.observe_many(f"net.tree.level{level}.arrival_s", arrival)
        else:
            arrival = initiated
        plo, phi, pid, pready, tid = c_lo, c_hi, child, arrival, t_child
        level += 1
    for i, walk in enumerate(walks):
        walk.makespan = float(makespans[i])
    for t_i, p_lo, p_hi, parent_id, initiated_s, p_level in sorted(patches):
        walk = walks[t_i]
        off = int(offsets[t_i])
        walk.timeouts += 1
        walk.failed.append(walk.nodelist[p_lo - off])
        walk.takeover(p_lo - off, p_hi - off, parent_id, initiated_s + walk.penalty, p_level)


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
        results: list[BroadcastResult] = []
        walked: list[tuple[BroadcastResult, _TreeWalk]] = []
        for root, targets in tasks:
            self._validate(targets, size_bytes)
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
