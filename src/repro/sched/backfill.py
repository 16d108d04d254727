"""EASY backfill (aggressive backfill with one reservation).

The algorithm the paper uses for every RM in its scheduling comparison
(Section VII-D, citing the Slurm/PBS/LSF backfill documentation):

1. start queued jobs in order while they fit;
2. when the head does not fit, compute its *shadow time* — the earliest
   instant enough nodes will be free assuming running jobs end at their
   believed (wall-limit) ends — and reserve those nodes;
3. a later job may jump the queue iff it fits in the currently-free
   nodes **and** either (a) it is believed to finish before the shadow
   time, or (b) it only uses nodes beyond the reservation's need (the
   "extra nodes" rule).

Because decisions in step 3 trust ``job.limit_s``, the whole benefit of
accurate runtime estimation flows through here: overestimated limits
make holes look too small (lost utilization), underestimates kill jobs
at the wall limit.

Every submit, tick and release runs a pass, and on an overloaded day
almost all of them start nothing.  A pass that started nothing is
remembered, and a repeat returns ``[]`` in O(1) while nothing it reads
has changed (``NodePool.version``, ``JobQueue.removals``, the backfill
window) and ``now`` has not gone back; :meth:`BackfillScheduler.plan`
gives the argument that the skip decides exactly what the walk would.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from repro.sched.allocator import NodePool
from repro.sched.job import Job, JobState
from repro.sched.queue import JobQueue
from repro.telemetry import facade as telemetry


@dataclass(frozen=True)
class ResizeDecision:
    """One grow or shrink of a running malleable job.

    The pool bookkeeping is already updated when the decision is
    emitted (mirroring how ``plan`` allocates); the RM engine applies
    the job/cluster/process side.
    """

    job: Job
    added: t.Sequence[int] | np.ndarray = ()
    removed: t.Sequence[int] | np.ndarray = ()


class BackfillScheduler:
    """EASY backfill with a single head-of-queue reservation.

    Args:
        max_backfill_depth: how many queued jobs behind the head are
            considered for backfilling per pass (Slurm's
            ``bf_max_job_test`` analogue).
        malleable: enable the elastic-job protocol — blocked heads may
            start *shrunk*, running jobs grow into spare holes
            (:meth:`plan_resizes`) and are contracted to admit a
            blocked head.  Off by default: the rigid path stays
            byte-identical to the paper's setting.
    """

    name = "backfill"

    def __init__(self, max_backfill_depth: int = 100, malleable: bool = False) -> None:
        self.max_backfill_depth = max_backfill_depth
        self.malleable = malleable
        #: ``(queue, pool, now, pool.version, queue.removals, len(queue),
        #: attempts)`` of the last pass that reached phase 2 with nothing
        #: started; see :meth:`plan` (it assumes the two settings above
        #: stay as constructed)
        self._idle: tuple[t.Any, ...] | None = None

    def plan(self, queue: JobQueue, pool: NodePool, now: float) -> list[tuple[Job, np.ndarray]]:
        """One scheduling pass; returns ``(job, node_ids)`` start decisions.

        **Idle passes.**  A pass that starts nothing is repeated by every
        submit, tick and release until something changes, so it returns
        ``[]`` at once when the previous pass on the same ``queue`` and
        ``pool``, at a ``now`` no later than this one, started nothing
        and nothing it reads has changed since: ``pool.version`` (bumped
        by every node-state, owner and believed-end write) is the same,
        and the window — the first ``max_backfill_depth + 1`` jobs — holds
        the same jobs (no ``queue.removals``, and the length is unchanged
        or the window was already full; ``submit`` only appends).  The
        skip is exact.  With the pool and the window unchanged phase 1
        fails on the same head; every candidate with ``n_nodes > free``
        still has it; ``uses_spare_nodes`` compares against the same
        ``extra_nodes``; and ``now + planned_s <= shadow`` can only turn
        false as ``now`` grows, since the shadow is a believed end of the
        unchanged pool, ``inf``, or ``now`` itself.  A skipped pass still
        counts its window's ``sched.backfill.attempts``.  The record is
        taken before phase 2, so a start there voids it through
        ``pool.version``.
        """
        idle = self._idle
        if idle is not None:
            idle_queue, idle_pool, since, version, removals, length, attempts = idle
            if (
                idle_queue is queue
                and idle_pool is pool
                and since <= now
                and version == pool.version
                and removals == queue.removals
                and (length == len(queue) or length > self.max_backfill_depth)
            ):
                telemetry.count("sched.backfill.attempts", attempts)
                return []
        decisions: list[tuple[Job, np.ndarray]] = []
        # Phase 1: plain FCFS while the head fits.  In malleable mode a
        # blocked elastic head may start *shrunk* (contracted under
        # pressure) instead of waiting for its full reservation.
        shrunk_starts = 0
        while True:
            head = queue.head()
            if head is None:
                break
            if pool.fits(head):
                nodes = pool.allocate(head, now)
            elif (
                self.malleable
                and head.malleable
                and pool.n_free >= head.min_nodes
            ):
                width = pool.n_free if pool.n_free < head.n_nodes else head.n_nodes
                nodes = pool.allocate(head, now, width)
                # Work conservation stretches a shrunk job's wall clock;
                # the reservation belief must stretch with it.
                pool.retime(head.job_id, now + head.limit_s * (head.n_nodes / width))
                shrunk_starts += 1
            else:
                break
            queue.remove(head)
            decisions.append((head, nodes))
        if shrunk_starts:
            telemetry.count("sched.start.shrunk", shrunk_starts)
        head = queue.head()
        if head is None:
            return decisions
        tel = telemetry.active()
        candidates = queue.backfill_candidates(self.max_backfill_depth)
        if tel is not None:
            # one bulk increment per pass, not one call per candidate —
            # this counter alone dominated pass cost at 16K nodes
            tel.count("sched.backfill.attempts", len(candidates))
        if not decisions:
            self._idle = (
                queue, pool, now, pool.version, queue.removals, len(queue), len(candidates),
            )
        if pool.n_free == 0 or not candidates:
            # No candidate can fit (``fits`` needs at least one free
            # node), so the reservation walk would decide nothing; the
            # outcome is identical to walking phases 2-3 to no effect.
            return decisions
        # Phases 2-3: backfill behind the head's reservation, walked at
        # the first candidate that fits.  Nothing has been allocated
        # since phase 1, so it is the reservation an eager walk would
        # find, and a pass where no candidate fits never walks it.
        # ``free`` mirrors ``pool.n_free``, refreshed after each start.
        free = pool.n_free
        shadow_time: float | None = None
        for job in candidates:
            if job.n_nodes > free:
                continue
            if shadow_time is None:
                shadow_time, extra_nodes = self._reservation(head, pool, now)
            finishes_before_shadow = now + job.planned_s <= shadow_time
            uses_spare_nodes = job.n_nodes <= extra_nodes
            if finishes_before_shadow or uses_spare_nodes:
                nodes = pool.allocate(job, now)
                free = pool.n_free
                queue.remove(job)
                decisions.append((job, nodes))
                if tel is not None:
                    tel.count("sched.backfill.starts")
                # Spare nodes are *consumed* whenever this job may still
                # hold them past the shadow time — judged by the kill
                # limit, the only bound the system enforces.  Deciding
                # only on ``uses_spare_nodes and not finishes_before_shadow``
                # double-counts: a job admitted under both conditions
                # (planned to finish early, but its limit reaching past
                # the shadow) left ``extra_nodes`` intact, letting later
                # candidates re-consume the same spares and encroach on
                # the head's reservation if the estimate runs long.
                if now + job.limit_s > shadow_time:
                    extra_nodes -= job.n_nodes
        return decisions

    def _reservation(self, head: Job, pool: NodePool, now: float) -> tuple[float, int]:
        """``(shadow_time, extra_nodes)`` for the blocked head job.

        Walk running jobs by believed end (each at its *current*,
        post-resize width); the shadow time is when cumulative releases
        make the head fit.  ``extra_nodes`` is how many nodes beyond the
        head's need are free at that instant.

        In malleable mode a blocked elastic head reserves at the width
        it can actually start at — ``min_nodes``, the same need
        :meth:`plan_resizes` contracts donors toward — not its original
        ``n_nodes``.  Reserving the rigid width computed the shadow from
        a start that phase 1 never waits for (it starts the head shrunk
        as soon as ``min_nodes`` are free), so the spare budget was
        charged at the wrong instant and systematically mis-counted.
        """
        free = pool.n_free
        needed = (
            head.min_nodes if self.malleable and head.malleable else head.n_nodes
        )
        if free >= needed:
            # Already startable at the reserved width (a malleable head
            # awaiting the engine's next start pass): the shadow is now.
            return now, free - needed
        for believed_end, n_nodes in pool.believed_ends():
            free += n_nodes
            if free >= needed:
                return believed_end, free - needed
        # Head can never fit from running-job releases alone (e.g. down
        # nodes shrank the machine).  An infinite shadow time lets every
        # smaller job backfill rather than starving the whole queue
        # behind an unsatisfiable head.
        return float("inf"), 0

    # -- malleability ------------------------------------------------------
    def plan_resizes(self, queue: JobQueue, pool: NodePool, now: float) -> list[ResizeDecision]:
        """One elastic pass: contract to admit a blocked head, then grow.

        Runs *after* :meth:`plan` on the post-start pool state, so the
        head reservation is recomputed fresh — a growing job and a
        backfilled job can never double-count the same spare nodes.
        Pool bookkeeping is mutated here (exactly like ``plan``); the
        engine applies the job/cluster side and retimes processes.

        * **contraction**: when the blocked head cannot fit even at its
          minimum width, running elastic jobs above their ``min_nodes``
          donate nodes (highest ids first) — but only when the donations
          fully cover the deficit;
        * **growth**: spare free nodes are handed to running elastic
          jobs below ``max_nodes``.  A grower believed to run past the
          head's shadow time consumes the same ``extra_nodes`` budget
          backfill charges, so the reservation stays safe.
        """
        if not self.malleable or not pool.running:
            return []
        decisions: list[ResizeDecision] = []

        def elastic(rec: "t.Any") -> bool:
            return rec.job.malleable and rec.job.state is JobState.RUNNING

        head = queue.head()
        if head is not None:
            need = head.min_nodes if head.malleable else head.n_nodes
            deficit = need - pool.n_free
            if deficit > 0:
                if deficit > pool.elastic_slack:
                    # The slack bounds the donors' capacity from above, so
                    # the full pass below would also return nothing.
                    return decisions
                donors = [
                    rec
                    for _, rec in sorted(pool.running.items())
                    if elastic(rec) and len(rec.node_ids) > rec.job.min_nodes
                ]
                capacity = sum(len(r.node_ids) - r.job.min_nodes for r in donors)
                if capacity < deficit:
                    return decisions  # partial shrinks would help nobody
                for rec in donors:
                    if deficit <= 0:
                        break
                    give = min(len(rec.node_ids) - rec.job.min_nodes, deficit)
                    victims = tuple(sorted(rec.node_ids.tolist())[-give:])
                    pool.shrink_allocation(rec.job.job_id, victims)
                    decisions.append(ResizeDecision(rec.job, removed=victims))
                    deficit -= give
                # The freed nodes admit the head on the engine's follow-up
                # pass; growing now would re-consume them.
                return decisions
        if pool.n_free == 0:
            return decisions
        growable = [
            rec
            for _, rec in sorted(pool.running.items())
            if elastic(rec) and len(rec.node_ids) < rec.job.max_nodes
        ]
        if not growable:
            return decisions
        if queue.demand_nodes == 0:
            # Nothing pending: every free node is spare.
            shadow, extra = float("inf"), pool.n_free
        else:
            shadow, extra = self._reservation(head, pool, now)
        for rec in growable:
            if pool.n_free == 0:
                break
            want = min(rec.job.max_nodes - len(rec.node_ids), pool.n_free)
            # Growers holding spares past the shadow burn the budget —
            # the exact rule backfill applies to jobs it admits.
            beyond_shadow = rec.believed_end > shadow
            if beyond_shadow:
                want = min(want, extra)
            if want <= 0:
                continue
            added = pool.grow_allocation(rec.job.job_id, want)
            decisions.append(ResizeDecision(rec.job, added=added))
            if beyond_shadow:
                extra -= want
        return decisions
