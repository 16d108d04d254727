"""Node allocation: the free pool and running-job bookkeeping.

The pool is the scheduler's view of the machine: which compute nodes are
free, which job holds which nodes, and — crucially for backfill — when
each running job is *believed* to end (its start time plus wall limit).

Internally the pool is struct-of-arrays: per-node state lives in
parallel numpy columns indexed by a dense column number, not in per-node
sets.  Columns follow ascending node id: when the universe is
``range(n)`` (the RM's case) the column *is* the id, otherwise a binary
search of the sorted ids finds it.

* ``_state`` — one ``uint8`` per node: FREE / BUSY / DOWN.  DOWN wins
  over BUSY for counting purposes (``_n_down`` counts down nodes a job
  still holds), matching the historical set semantics where ``_down``
  membership and allocation-record membership were independent.
* ``_owner`` — the ``int64`` job id bound to the node, or -1.  The
  binding survives ``mark_down`` (the job still holds the node until it
  is released or shrunk away), which is what makes ``mark_down`` /
  ``mark_up`` O(1) instead of a scan over every running job's allocation.

Allocation is *first-fit-by-id*: a k-node job receives the k smallest
free ids.  The pool keeps a free *floor* ``_floor``, a column below
which nothing is FREE: a first-fit claim raises it past the columns it
binds, and a column turning FREE (a release, a shrink, a repair) lowers
it.  The scan reads the state column from the floor in doubling windows
and stops once it holds k free columns, so a launch reads about as many
columns as the job takes, not the machine.
An allocation is one read-only ``int64`` array of node ids, the form
every layer down to the tree broadcast reads without a conversion.  A
single run of consecutive columns is handed out as a view of the pool's
read-only id column ``_id_col`` (no per-node bytes: the job keeps the
column alive, which the pool does anyway); any other allocation is a
``take`` of it (eight bytes per node).  On a dense pool (ids
``0 .. n-1``, the RM's case) the id is the column, so binding or
releasing a job's nodes is one fancy-indexed update with the
allocation itself as the index.  Aggregate counters (``_n_free``,
``_n_down``, ``elastic_slack``) are maintained incrementally so
capacity checks are O(1).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from repro.cluster.node import id_mask, node_array
from repro.errors import SchedulingError
from repro.sched.job import Job

#: per-node state column values
_FREE, _BUSY, _DOWN = 0, 1, 2

#: owner-column value for "no job bound to this node"
_NO_OWNER = -1


@dataclass
class RunningJob:
    """Bookkeeping for one running job.

    Only :class:`NodePool` mutates a record: its aggregate counters
    (``elastic_slack`` among them) are kept in step with ``node_ids``
    and would drift under an outside write.
    """

    job: Job
    #: the allocation, a read-only ``int64`` array
    node_ids: np.ndarray
    believed_end: float


def _slack(job: Job, width: int) -> int:
    """A record's share of ``elastic_slack``: nodes above a malleable floor."""
    return width - job.min_nodes if job.malleable and width > job.min_nodes else 0


class NodePool:
    """Columnar free/running bookkeeping over a fixed universe.

    Allocation order is *first-fit-by-id*: a k-node job always receives
    the k smallest free node ids, found by a windowed scan of the state
    column from the free floor and handed out as a slice or a ``take``
    of ``_id_col``.
    """

    #: columns in the free scan's first window: a pool this small is one
    #: scan from the floor, never more calls than a whole-column scan
    SCAN_MIN_WINDOW = 1024

    def __init__(self, node_ids: t.Sequence[int] | np.ndarray, placement: t.Any = None) -> None:
        id_col = np.array(node_ids, dtype=np.int64)
        if (id_col[1:] < id_col[:-1]).any():  # the RM's compute ids come sorted
            id_col.sort()
        if (id_col[1:] == id_col[:-1]).any():
            raise SchedulingError("duplicate node ids in pool")
        id_col.flags.writeable = False
        n = id_col.size
        #: column -> node id (ascending, read-only); allocations are its
        #: slices and takes
        self._id_col = id_col
        #: whether the column is the id (sorted distinct ints from 0 to
        #: n-1 are exactly ``range(n)``)
        self._dense = n == 0 or bool(id_col[0] == 0 and id_col[-1] == n - 1)
        #: per-node state column (FREE / BUSY / DOWN)
        self._state = np.zeros(n, dtype=np.uint8)
        #: per-node owning job id (-1 when unbound)
        self._owner = np.full(n, _NO_OWNER, dtype=np.int64)
        self._n_free = n
        self._n_down = 0
        #: no column below it is FREE (a lower bound, not kept exact)
        self._floor = 0
        self.running: dict[int, RunningJob] = {}
        #: Σ nodes held above ``min_nodes`` over malleable records, whatever
        #: the job's state: an upper bound on what contraction can free
        self.elastic_slack = 0
        #: memo for :meth:`believed_ends`, dropped whenever ``running`` changes
        self._ends_cache: list[tuple[float, int]] | None = None
        #: bumped by every write a backfill pass reads (node states, owners,
        #: believed ends), so an unchanged value means an unchanged pool
        self.version = 0
        #: optional :class:`~repro.sched.placement.PlacementPolicy`;
        #: ``None`` keeps the native first-fit-by-id scan
        self.placement = placement

    # -- capacity ----------------------------------------------------------
    @property
    def n_total(self) -> int:
        return self._id_col.size

    @property
    def n_free(self) -> int:
        return self._n_free

    @property
    def n_busy(self) -> int:
        return self._id_col.size - self._n_free - self._n_down

    def has_node(self, node_id: int) -> bool:
        """Whether the node belongs to this pool's universe."""
        return self._col_of(node_id) is not None

    def _col_of(self, node_id: int) -> int | None:
        """Column of ``node_id``, or ``None`` outside the universe."""
        ids = self._id_col
        col = node_id if self._dense else int(ids.searchsorted(node_id))
        return col if 0 <= col < ids.size and ids[col] == node_id else None

    def free_ids(self) -> frozenset[int]:
        """Snapshot of the free set (invariant checking / debugging)."""
        return self._ids_in_state(_FREE)

    def down_ids(self) -> frozenset[int]:
        """Snapshot of the out-of-service set."""
        return self._ids_in_state(_DOWN)

    def _ids_in_state(self, state: int) -> frozenset[int]:
        return frozenset(self._id_col[self._state == state].tolist())

    def _cols(self, node_ids: np.ndarray) -> np.ndarray:
        """Columns of the ids in ``node_ids``, which must all belong to
        the pool: the array itself on a dense pool."""
        return node_ids if self._dense else self._id_col.searchsorted(node_ids)

    def fits(self, job: Job) -> bool:
        return job.n_nodes <= self._n_free

    def fits_width(self, width: int) -> bool:
        return width <= self._n_free

    # -- allocation -----------------------------------------------------------
    def allocate(self, job: Job, now: float, width: int | None = None) -> np.ndarray:
        """Allocate ``width`` (default ``job.n_nodes``) free nodes.

        First-fit-by-id unless a placement policy is attached; malleable
        jobs may be started at any width in their declared range.
        """
        k = job.n_nodes if width is None else width
        if not self.fits_width(k):
            raise SchedulingError(
                f"job {job.job_id}: wants {k} nodes, {self._n_free} free"
            )
        chosen = self._claim(k, job.job_id)
        # Reservations must rest on the *kill limit* — the only bound the
        # system enforces.  Planning estimates (job.planned_s) steer
        # backfill eligibility, never reservation safety.
        self.running[job.job_id] = RunningJob(job, chosen, now + job.limit_s)
        self.elastic_slack += _slack(job, k)
        self._ends_cache = None
        return chosen

    def _claim(self, k: int, job_id: int) -> np.ndarray:
        """Bind ``k`` free nodes to ``job_id``: first-fit or placement."""
        if k < 0:
            raise SchedulingError(f"job {job_id}: negative width {k}")
        if self.placement is None:
            cols = self._pop_smallest_free(k)
            chosen = self._handout(cols)
            if k:
                # every free column below the last one taken was taken too
                self._floor = int(cols[-1]) + 1
        else:
            free = self.free_ids()
            chosen = self.placement.select(free, k)
            if (
                chosen is None
                or len(chosen) != k
                or len(set(chosen)) != k
                or not free.issuperset(chosen)
            ):
                raise SchedulingError(f"placement returned {chosen!r} for k={k}")
            chosen = node_array(chosen)
            cols = self._cols(chosen)
        self._state[cols] = _BUSY
        self._owner[cols] = job_id
        self._n_free -= k
        self.version += 1
        return chosen

    def _pop_smallest_free(self, k: int) -> np.ndarray:
        """Columns of the k smallest free ids (ascending).

        Scans from the floor in windows that start at
        ``max(k, SCAN_MIN_WINDOW)`` columns and double, stopping at the
        window that completes k.
        """
        state = self._state
        lo, window = self._floor, max(k, self.SCAN_MIN_WINDOW)
        cols = np.flatnonzero(state[lo : lo + window] == _FREE)[:k] + lo
        while cols.size < k and lo + window < state.size:
            lo += window
            window *= 2
            more = np.flatnonzero(state[lo : lo + window] == _FREE)[: k - cols.size] + lo
            cols = np.concatenate((cols, more))
        if cols.size < k:
            raise SchedulingError(
                f"free count drifted: wanted {k} nodes, {cols.size} free in the state column"
            )
        return cols

    def _handout(self, cols: np.ndarray) -> np.ndarray:
        """The ids at ascending ``cols``, as a read-only array.

        First-fit allocations are nearly always one run of consecutive
        columns, recognised from its end columns alone and handed out
        as a view of ``_id_col`` (O(1), and the scan's column array is
        not kept alive); anything else is a ``take``.
        """
        k = len(cols)
        lo = int(cols[0]) if k else 0
        if k == 0 or int(cols[-1]) - lo == k - 1:
            return self._id_col[lo : lo + k]
        ids = self._id_col.take(cols)
        ids.flags.writeable = False
        return ids

    def _unbind(self, cols: np.ndarray) -> None:
        """Unbind distinct columns; those not out of service become free."""
        self._owner[cols] = _NO_OWNER
        state = self._state
        up = cols[state[cols] != _DOWN]
        state[up] = _FREE
        if up.size:
            self._floor = min(self._floor, int(up.min()))
        self._n_free += len(up)
        self.version += 1

    # -- malleability -----------------------------------------------------
    def grow_allocation(self, job_id: int, k: int) -> np.ndarray:
        """Hand ``k`` more free nodes to a running job; returns them."""
        try:
            rec = self.running[job_id]
        except KeyError:
            raise SchedulingError(f"job {job_id}: not running") from None
        if not self.fits_width(k):
            raise SchedulingError(f"job {job_id}: grow wants {k} nodes, {self._n_free} free")
        chosen = self._claim(k, job_id)
        before = len(rec.node_ids)
        rec.node_ids = node_array(np.concatenate((rec.node_ids, chosen)))
        self.elastic_slack += _slack(rec.job, before + k) - _slack(rec.job, before)
        self._ends_cache = None
        return chosen

    def shrink_allocation(self, job_id: int, node_ids: t.Sequence[int]) -> np.ndarray:
        """Take ``node_ids`` away from a running job; returns them.

        Nodes currently marked down (a failure-driven shrink) are
        unbound from the record but *not* returned to the free set —
        :meth:`mark_up` frees them on repair.
        """
        try:
            rec = self.running[job_id]
        except KeyError:
            raise SchedulingError(f"job {job_id}: not running") from None
        removed = node_array(node_ids)
        if len(set(removed.tolist())) != removed.size:
            raise SchedulingError(f"job {job_id}: duplicate shrink nodes {removed.tolist()!r}")
        gone = id_mask(rec.node_ids, removed)
        if np.count_nonzero(gone) != removed.size:
            raise SchedulingError(f"job {job_id}: shrink nodes not held")
        before = len(rec.node_ids)
        rec.node_ids = node_array(rec.node_ids[~gone])
        self.elastic_slack += _slack(rec.job, len(rec.node_ids)) - _slack(rec.job, before)
        self._ends_cache = None
        self._unbind(self._cols(removed))
        return removed

    def retime(self, job_id: int, believed_end: float) -> None:
        """Refresh a running job's believed end (post-resize retiming)."""
        try:
            rec = self.running[job_id]
        except KeyError:
            raise SchedulingError(f"job {job_id}: not running") from None
        rec.believed_end = believed_end
        self._ends_cache = None
        self.version += 1

    def release(self, job_id: int) -> np.ndarray:
        """Free the nodes of a finished job; returns them."""
        try:
            rec = self.running.pop(job_id)
        except KeyError:
            raise SchedulingError(f"job {job_id}: not running") from None
        self.elastic_slack -= _slack(rec.job, len(rec.node_ids))
        self._ends_cache = None
        self._unbind(self._cols(rec.node_ids))
        return rec.node_ids

    # -- failures ---------------------------------------------------------------
    def mark_down(self, node_id: int) -> int | None:
        """Remove a node from service; returns the running job it kills.

        O(1) via the owner column — the job binding survives the state
        flip, so no scan over running allocations is needed.
        """
        c = self._col_of(node_id)
        if c is None:
            raise SchedulingError(f"node {node_id} not in pool")
        self.version += 1
        state = self._state
        prev = state[c]
        if prev != _DOWN:
            if prev == _FREE:
                self._n_free -= 1
            self._n_down += 1
            state[c] = _DOWN
        owner = int(self._owner[c])
        return owner if owner != _NO_OWNER else None

    def mark_up(self, node_id: int) -> None:
        """Return a repaired node to service (and to the free pool if unbound)."""
        c = self._col_of(node_id)
        if c is None:
            raise SchedulingError(f"node {node_id} not in pool")
        self.version += 1
        if self._state[c] == _DOWN:
            self._n_down -= 1
            if self._owner[c] == _NO_OWNER:
                self._state[c] = _FREE
                self._n_free += 1
                self._floor = min(self._floor, c)
            else:
                # The job kept running on its surviving nodes; this one
                # rejoins the allocation it never formally left.
                self._state[c] = _BUSY

    # -- backfill support ---------------------------------------------------
    def believed_ends(self) -> list[tuple[float, int]]:
        """``(believed_end, width)`` of running jobs, soonest first.

        The width is the job's *current* allocation size, so resized
        malleable jobs are walked at their believed width.  Cached
        between mutations: a scheduling pass may consult this several
        times (head reservation, telemetry) without re-sorting.
        Callers must not mutate the returned list.
        """
        if self._ends_cache is None:
            self._ends_cache = sorted(
                (rec.believed_end, len(rec.node_ids)) for rec in self.running.values()
            )
        return self._ends_cache
