"""Simulation-wide invariants and the registry that audits them.

This module is the **shared registry**: both the chaos campaigns
(:mod:`repro.chaos`) and the oracle suites (:mod:`repro.oracle`)
consume these definitions, so a predicate is stated exactly once.

Each :class:`Invariant` encodes one predicate the paper's claims rest
on: the satellite state machine only ever takes Table II transitions,
node bookkeeping is conserved across failures and recoveries, every
FP-Tree rearrangement stays structurally sound, Eq. 1 returns the
documented satellite count, and the scheduler never double-books or
starves the head job.

Invariants come in two flavours, and one class may use both:

* *event-driven* — :meth:`Invariant.attach` installs observers on the
  instrumented subsystems (satellite transition hooks, FP-Tree
  construction hooks, Eq. 1 hooks) so illegal steps are caught the
  instant they happen;
* *scan* — :meth:`Invariant.check` sweeps global state and is driven by
  the simulator's post-event probe, so every processed event leaves the
  world consistent.

Violations are recorded, never raised: a chaos campaign should keep
going and report everything it saw.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from repro.cluster.node import UP_CODE
from repro.fptree.tree import build_tree, leaf_positions
from repro.rm.satellite import (
    FAULT_TIMEOUT_S,
    _TRANSITIONS,
    SatelliteDaemon,
    SatelliteEvent,
    SatelliteState,
)
from repro.sched.job import JobState

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.spec import Cluster
    from repro.rm.base import ResourceManager
    from repro.simkit.core import Simulator

#: Chaos runs keep at most this many full violation records per
#: invariant; counts keep accumulating beyond it (a broken invariant
#: can fire on every event of a long campaign).
MAX_RECORDED_PER_INVARIANT = 50


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    time: float
    invariant: str
    detail: str


@dataclass
class ChaosContext:
    """Everything an invariant may inspect during a run."""

    sim: "Simulator"
    cluster: "Cluster"
    rm: "ResourceManager"


Reporter = t.Callable[[str], None]


class Invariant:
    """Base class: a named predicate over the simulation."""

    name = "invariant"

    def attach(self, ctx: ChaosContext, report: Reporter) -> None:
        """Install event-driven observers (default: none)."""

    def check(self, ctx: ChaosContext) -> t.Iterable[str]:
        """Scan global state; yield one detail string per breach."""
        return ()


class SatelliteLegality(Invariant):
    """Table II is the whole law of the satellite state machine.

    Event-driven: every transition must match the published table
    (unlisted pairs keep their state, SHUTDOWN lands in DOWN), and no
    non-RUNNING satellite — in particular no BUSY one — may ever be
    handed a broadcast task.  Scan: a FAULT older than the 20-minute
    timeout plus two heartbeat periods should have been escalated DOWN.
    """

    name = "satellite-legality"

    def attach(self, ctx: ChaosContext, report: Reporter) -> None:
        pool = getattr(ctx.rm, "sat_pool", None)
        if pool is None:
            return

        def on_transition(
            daemon: SatelliteDaemon,
            old: SatelliteState,
            event: SatelliteEvent,
            new: SatelliteState,
        ) -> None:
            if event is SatelliteEvent.BT_START and old is not SatelliteState.RUNNING:
                report(
                    f"{daemon.name}: broadcast task assigned in state {old.value}"
                )
            if event is SatelliteEvent.SHUTDOWN:
                expected = SatelliteState.DOWN
            else:
                expected = _TRANSITIONS.get((old, event), old)
            if new is not expected:
                report(
                    f"{daemon.name}: {old.value} --{event.value}--> {new.value}, "
                    f"Table II says {expected.value}"
                )

        for daemon in pool.daemons:
            daemon.transition_observers.append(on_transition)

    def check(self, ctx: ChaosContext) -> t.Iterable[str]:
        pool = getattr(ctx.rm, "sat_pool", None)
        if pool is None:
            return
        slack = 2 * ctx.rm.profile.heartbeat_interval_s
        for daemon in pool.daemons:
            since = daemon.fault_since
            if (
                daemon.state is SatelliteState.FAULT
                and since is not None
                and ctx.sim.now - since > FAULT_TIMEOUT_S + slack
            ):
                yield (
                    f"{daemon.name}: FAULT for {ctx.sim.now - since:.0f}s "
                    f"without the {FAULT_TIMEOUT_S:.0f}s timeout firing"
                )


class NodeConservation(Invariant):
    """No node is lost or double-counted across failure and recovery.

    The scheduler pool's free/down/allocated sets must stay mutually
    exclusive, agree with the cluster's liveness, and never hand the
    same node to two jobs; every BUSY node must be held by a record.
    """

    name = "node-conservation"

    def check(self, ctx: ChaosContext) -> t.Iterable[str]:
        pool = ctx.rm.pool
        free = pool.free_ids()
        down = pool.down_ids()
        overlap = free & down
        if overlap:
            yield f"nodes both free and down: {sorted(overlap)[:8]}"
        owner: dict[int, int] = {}
        for job_id, rec in pool.running.items():
            for nid in rec.node_ids.tolist():
                if nid in owner:
                    yield f"node {nid} allocated to jobs {owner[nid]} and {job_id}"
                owner[nid] = job_id
                if nid in free:
                    yield f"node {nid} free while allocated to job {job_id}"
        held_up = sum(1 for nid in owner if nid not in down)
        if pool.n_busy != held_up:
            yield f"pool counts {pool.n_busy} busy nodes, its records hold {held_up} in service"
        cols = np.fromiter(free, dtype=np.int64, count=len(free))
        cols.sort()
        for nid in cols[ctx.cluster.state[cols] != UP_CODE].tolist():
            yield f"unresponsive node {nid} still in the free pool"


class FPTreeSoundness(Invariant):
    """Every FP-Tree rearrangement yields a sound broadcast tree.

    Event-driven on the constructor: the rearranged list must be a
    permutation of the targets (all live nodes reachable exactly once),
    the implied tree must respect the k-ary width bound, and
    predicted-failed nodes must fill leaf positions to capacity — the
    paper's Fig. 4 guarantee.
    """

    name = "fptree-soundness"

    def attach(self, ctx: ChaosContext, report: Reporter) -> None:
        constructor = getattr(ctx.rm, "fp_constructor", None)
        if constructor is None:
            return
        width = constructor.width

        def on_construct(
            targets: t.Sequence[int],
            ordered: t.Sequence[int],
            leaf_idx: t.Sequence[int],
            predicted: t.AbstractSet[int],
        ) -> None:
            if sorted(ordered) != sorted(targets):
                report(
                    f"rearrangement is not a permutation: {len(targets)} targets, "
                    f"{len(set(ordered))} distinct placed"
                )
                return
            n = len(targets) + 1  # with the satellite root at position 0
            expected_leaves = [p - 1 for p in leaf_positions(n, width) if p > 0]
            if list(leaf_idx) != expected_leaves:
                report(f"leaf positions diverge from the k-ary layout (n={n})")
            tree = build_tree(list(range(n)), width)
            for vertex in tree.iter_nodes():
                if len(vertex.children) > width:
                    report(
                        f"tree vertex has {len(vertex.children)} children "
                        f"(width bound {width})"
                    )
                    break
            predicted_here = predicted & set(targets)
            leaves = set(leaf_idx)
            on_leaves = sum(
                1 for pos, nid in enumerate(ordered) if nid in predicted_here and pos in leaves
            )
            expected_on_leaves = min(len(predicted_here), len(leaves))
            if on_leaves != expected_on_leaves:
                report(
                    f"{on_leaves}/{len(predicted_here)} predicted-failed nodes on "
                    f"leaves; rearrangement guarantees {expected_on_leaves}"
                )

        constructor.construct_observers.append(on_construct)


class Eq1Correctness(Invariant):
    """Every satellite-count evaluation matches Eq. 1 of the paper.

    Event-driven on :meth:`SatellitePool.compute_n`; the expected value
    is recomputed here, independently of the production code path.
    """

    name = "eq1-correctness"

    def attach(self, ctx: ChaosContext, report: Reporter) -> None:
        pool = getattr(ctx.rm, "sat_pool", None)
        if pool is None:
            return
        pool.eq1_observers.append(lambda s, n, w, m: self._audit(report, s, n, w, m))

    @staticmethod
    def _audit(report: Reporter, s: int, n: int, w: int, m: int) -> None:
        if s <= 0:
            expected = 0
        elif s <= w:
            expected = 1
        elif s >= m * w:
            expected = m
        else:
            expected = min((s + w - 1) // w, m)
        if n != expected:
            report(f"compute_n(s={s}, w={w}, m={m}) = {n}, Eq. 1 says {expected}")


class SchedulerConservation(Invariant):
    """Jobs are queued xor running, and the head job is never starved.

    Scan-only.  A job id must never appear in the pending queue and the
    running set at once; queued jobs must be PENDING and running
    records non-terminal.  Starvation: if the head job *fits* in the
    free pool, a live master must start it within two scheduler ticks —
    EASY backfill's reservation exists precisely so backfilled jobs
    cannot push the head past that point.
    """

    name = "scheduler-conservation"

    #: grace beyond two scheduler ticks before a fitting head counts as
    #: starved (broadcast launches happen within a tick in practice)
    STARVATION_SLACK_S = 1.0

    def __init__(self) -> None:
        self._head_fits_since: tuple[int, float] | None = None
        self._flagged_head: int | None = None

    def check(self, ctx: ChaosContext) -> t.Iterable[str]:
        rm = ctx.rm
        queued = {job.job_id for job in rm.queue}
        running = set(rm.pool.running)
        for job_id in sorted(queued & running):
            yield f"job {job_id} is both queued and running"
        for job in rm.queue:
            if job.state is not JobState.PENDING:
                yield f"queued job {job.job_id} in state {job.state.value}"
        for job_id, rec in rm.pool.running.items():
            if rec.job.state in (JobState.COMPLETED, JobState.CANCELLED):
                yield f"terminal job {job_id} still holds {len(rec.node_ids)} nodes"
        yield from self._check_starvation(ctx)

    def _check_starvation(self, ctx: ChaosContext) -> t.Iterable[str]:
        rm = ctx.rm
        head = rm.queue.head()
        if head is None or rm.master_down or not rm.pool.fits(head):
            self._head_fits_since = None
            return
        now = ctx.sim.now
        if self._head_fits_since is None or self._head_fits_since[0] != head.job_id:
            self._head_fits_since = (head.job_id, now)
            return
        waited = now - self._head_fits_since[1]
        limit = 2 * rm.profile.scheduler_tick_s + self.STARVATION_SLACK_S
        if waited > limit and self._flagged_head != head.job_id:
            self._flagged_head = head.job_id
            yield (
                f"head job {head.job_id} fits ({head.n_nodes} <= "
                f"{rm.pool.n_free} free) but has waited {waited:.0f}s"
            )


class MalleableWidth(Invariant):
    """Elastic jobs always run inside their declared width range.

    Scan-only.  Every running allocation of a malleable job must hold
    between ``min_nodes`` and ``max_nodes`` nodes — grow/shrink
    decisions (including chaos-driven contraction on node failure) may
    never push a job outside the range it declared at submit.  While a
    malleable job is RUNNING its own view of the allocation must agree
    with the scheduler pool's record, and the pool's incremental
    ``elastic_slack`` must equal the slack recomputed from its records.
    """

    name = "malleable-width"

    def check(self, ctx: ChaosContext) -> t.Iterable[str]:
        pool = ctx.rm.pool
        slack = 0
        for job_id, rec in pool.running.items():
            job = rec.job
            if not getattr(job, "malleable", False):
                continue
            width = len(rec.node_ids)
            slack += max(width - job.min_nodes, 0)
            if not job.min_nodes <= width <= job.max_nodes:
                yield (
                    f"job {job_id} runs at width {width}, outside "
                    f"[{job.min_nodes}, {job.max_nodes}]"
                )
            view, record = job.allocated_nodes.tolist(), rec.node_ids.tolist()
            if job.state is JobState.RUNNING and set(view) != set(record):
                yield (
                    f"job {job_id} allocation view {sorted(view)[:8]} "
                    f"disagrees with the pool record {sorted(record)[:8]}"
                )
        if pool.elastic_slack != slack:
            yield f"pool elastic slack {pool.elastic_slack} != {slack} recomputed from its records"


def default_invariants() -> list[Invariant]:
    """Fresh instances of every registered invariant (they are stateful)."""
    return [
        SatelliteLegality(),
        NodeConservation(),
        FPTreeSoundness(),
        Eq1Correctness(),
        SchedulerConservation(),
        MalleableWidth(),
    ]


class InvariantRegistry:
    """Owns a set of invariants and the violations they record."""

    def __init__(self, invariants: t.Sequence[Invariant] | None = None) -> None:
        self.invariants: list[Invariant] = list(
            invariants if invariants is not None else default_invariants()
        )
        self.violations: list[Violation] = []
        self._counts: dict[str, int] = {inv.name: 0 for inv in self.invariants}
        self.checks_run = 0
        self._sim: "Simulator | None" = None

    def attach(self, ctx: ChaosContext) -> None:
        """Install every invariant's observers and remember the clock."""
        self._sim = ctx.sim
        for inv in self.invariants:
            self._counts.setdefault(inv.name, 0)
            inv.attach(ctx, self._reporter(inv.name))

    def probe(self, ctx: ChaosContext) -> None:
        """One post-event sweep over all scan invariants."""
        self.checks_run += 1
        for inv in self.invariants:
            for detail in inv.check(ctx):
                self._record(inv.name, detail, ctx.sim.now)

    def _reporter(self, name: str) -> Reporter:
        def report(detail: str) -> None:
            now = self._sim.now if self._sim is not None else 0.0
            self._record(name, detail, now)

        return report

    def _record(self, name: str, detail: str, now: float) -> None:
        self._counts[name] = self._counts.get(name, 0) + 1
        if self._counts[name] <= MAX_RECORDED_PER_INVARIANT:
            self.violations.append(Violation(now, name, detail))

    def counts(self) -> tuple[tuple[str, int], ...]:
        """Per-invariant violation totals, in registration order."""
        return tuple(self._counts.items())
