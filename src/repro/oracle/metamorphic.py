"""The metamorphic suite: transformed workloads, known output relations.

With no ground-truth schedule to compare against, the scheduler is
checked through transformations whose effect on the output is known *a
priori*: renaming job IDs changes nothing, scaling every duration by k
scales the schedule by k, a strictly larger machine can only help a
work-conserving FCFS queue, and reseeding changes the trace but never
the safety invariants.

Everything runs through one deterministic **replay kernel**
(:func:`replay`) driving the production queue / pool / scheduler
classes, so the relations exercise the exact decision code the
simulated resource managers use — not a reimplementation.

A deliberate exclusion: the capacity relation runs FCFS, not EASY
backfill.  Backfill is *not* monotone in machine size (a freed node can
re-order backfill opportunities and delay a specific job — the classic
scheduling anomaly, observed here empirically on ~half of random
seeds), so "add an idle node" is only a sound oracle for the
work-conserving FCFS policy.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.topology import Topology
from repro.errors import SchedulingError
from repro.sched.allocator import NodePool
from repro.sched.backfill import BackfillScheduler
from repro.sched.fcfs import FcfsScheduler
from repro.sched.job import Job, JobState
from repro.sched.placement import placement_score
from repro.sched.queue import JobQueue
from repro.oracle.relations import Relation, RelationResult
from repro.workload.synthetic import WorkloadConfig, generate_trace

#: large prime offset for the relabeling transform — far outside any
#: generated ID range, so relabeled and original IDs never collide
RELABEL_OFFSET = 7919


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of one job, safe to transform and replay."""

    job_id: int
    name: str
    user: str
    n_nodes: int
    runtime_s: float
    user_estimate_s: float | None
    submit_time: float

    def materialize(self) -> Job:
        """A fresh :class:`Job` (scheduler-managed fields reset)."""
        return Job(
            job_id=self.job_id,
            name=self.name,
            user=self.user,
            n_nodes=self.n_nodes,
            runtime_s=self.runtime_s,
            user_estimate_s=self.user_estimate_s,
            submit_time=self.submit_time,
        )


def specs_from_trace(jobs: t.Sequence[Job]) -> list[JobSpec]:
    """Strip a generated trace down to transformable specs."""
    return [
        JobSpec(
            job_id=j.job_id,
            name=j.name,
            user=j.user,
            n_nodes=j.n_nodes,
            runtime_s=j.runtime_s,
            user_estimate_s=j.user_estimate_s,
            submit_time=j.submit_time,
        )
        for j in jobs
    ]


@dataclass
class ReplayResult:
    """Deterministic outcome of one scheduler replay."""

    #: ``(job_id, start_time, node_ids)`` in decision order, the ids as
    #: Python ints
    decisions: list[tuple[int, float, tuple[int, ...]]]
    #: per-job ``(start_time, end_time)``
    spans: dict[int, tuple[float, float]]
    makespan: float

    def start_order(self) -> list[int]:
        return [job_id for job_id, _, _ in self.decisions]

    def wait_times(self, specs: t.Sequence[JobSpec]) -> dict[int, float]:
        return {s.job_id: self.spans[s.job_id][0] - s.submit_time for s in specs}


def replay(
    specs: t.Sequence[JobSpec],
    n_nodes: int,
    scheduler: t.Any | None = None,
    placement: t.Any | None = None,
) -> ReplayResult:
    """Replay a job stream through the production scheduler stack.

    A minimal event loop — submissions and completions on a
    ``(time, kind, seq)`` heap, one ``scheduler.plan()`` pass after every
    event — over the real :class:`JobQueue` / :class:`NodePool` /
    scheduler classes.  Every job must fit the machine and every job
    must eventually run; the kernel raises otherwise, which is itself a
    liveness check.  ``placement`` is handed to the :class:`NodePool`
    (``None`` keeps the native first-fit-by-id path).
    """
    import heapq

    scheduler = scheduler or BackfillScheduler()
    pool = NodePool(range(n_nodes), placement=placement)
    queue = JobQueue()
    jobs = {s.job_id: s.materialize() for s in specs}
    for s in specs:
        if s.n_nodes > n_nodes:
            raise ValueError(f"job {s.job_id} wants {s.n_nodes} > machine {n_nodes}")
    # kind 0 = submit, 1 = completion; seq breaks remaining ties
    heap: list[tuple[float, int, int]] = []
    seq = 0
    id_at: dict[int, int] = {}
    for s in specs:
        heap.append((s.submit_time, 0, seq))
        id_at[seq] = s.job_id
        seq += 1
    heapq.heapify(heap)
    decisions: list[tuple[int, float, tuple[int, ...]]] = []
    spans: dict[int, tuple[float, float]] = {}
    makespan = 0.0
    while heap:
        now, kind, evseq = heapq.heappop(heap)
        job = jobs[id_at[evseq]]
        if kind == 0:
            queue.submit(job)
        else:
            pool.release(job.job_id)
            job.finish(now, JobState.TIMEOUT if job.will_timeout else JobState.COMPLETED)
            assert job.start_time is not None
            spans[job.job_id] = (job.start_time, now)
            makespan = max(makespan, now)
        for started, node_ids in scheduler.plan(queue, pool, now):
            started.start(now, node_ids)
            decisions.append((started.job_id, now, tuple(node_ids.tolist())))
            heap_entry = (now + started.effective_runtime_s, 1, seq)
            id_at[seq] = started.job_id
            seq += 1
            heapq.heappush(heap, heap_entry)
    stuck = [j.job_id for j in jobs.values() if not j.is_terminal]
    if stuck:
        raise RuntimeError(f"replay deadlock: jobs never finished: {stuck[:5]}")
    return ReplayResult(decisions=decisions, spans=spans, makespan=makespan)


# ---------------------------------------------------------------------------
# the shared workload for the scheduler relations
# ---------------------------------------------------------------------------
def _base_specs(seed: int, n_jobs: int, max_nodes: int) -> list[JobSpec]:
    cfg = WorkloadConfig(jobs_per_day=1500.0, max_nodes=max_nodes, name="oracle-meta")
    return specs_from_trace(generate_trace(cfg, n_jobs, seed=seed))


class _SchedulerRelation(Relation):
    """Base for relations replaying one transformed workload pair."""

    layer = "metamorphic"
    n_jobs = 80
    n_nodes = 64

    def _specs(self, seed: int) -> list[JobSpec]:
        return _base_specs(seed, self.n_jobs, max_nodes=self.n_nodes // 2)


class RelabelInvarianceRelation(_SchedulerRelation):
    """Job-ID relabeling must not change a single decision.

    Scheduling keys on arrival order, sizes, and estimates — never on the
    ID itself.  Every decision (start time *and* chosen nodes) must be
    bit-identical after shifting all IDs by a large prime.
    """

    name = "relabel-invariance"
    section = "VI (simulation methodology)"
    claim = "job-ID relabeling leaves every allocation decision unchanged"

    def run(self, seed: int = 0) -> RelationResult:
        specs = self._specs(seed)
        relabeled = [replace(s, job_id=s.job_id + RELABEL_OFFSET) for s in specs]
        base = replay(specs, self.n_nodes)
        moved = replay(relabeled, self.n_nodes)
        mapped = [(jid - RELABEL_OFFSET, at, nodes) for jid, at, nodes in moved.decisions]
        ok = mapped == base.decisions
        n_diff = sum(1 for a, b in zip(mapped, base.decisions) if a != b)
        detail = f"seed={seed} jobs={len(specs)}: {len(base.decisions)} decisions"
        if not ok:
            detail += f" | {n_diff} decisions changed under relabeling"
        return self._result(ok, detail)


class JitterStabilityRelation(_SchedulerRelation):
    """Order-preserving sub-millisecond arrival jitter: same schedule.

    Nudging every submit time forward by a strictly order-preserving
    epsilon must keep the start order and the node allocations
    identical; start times may move by at most the jitter magnitude.
    """

    name = "jitter-stability"
    section = "VI (simulation methodology)"
    claim = "order-preserving arrival jitter preserves decision order and allocations"

    JITTER = 1e-4

    def run(self, seed: int = 0) -> RelationResult:
        specs = self._specs(seed)
        delta = self.JITTER / (len(specs) + 1)
        jittered = [replace(s, submit_time=s.submit_time + (i + 1) * delta) for i, s in enumerate(specs)]
        base = replay(specs, self.n_nodes)
        moved = replay(jittered, self.n_nodes)
        same_order = moved.start_order() == base.start_order()
        same_nodes = [n for _, _, n in moved.decisions] == [n for _, _, n in base.decisions]
        drift = max(
            (abs(a - b) for (_, a, _), (_, b, _) in zip(moved.decisions, base.decisions)),
            default=0.0,
        )
        ok = same_order and same_nodes and drift <= self.JITTER + 1e-9
        detail = f"seed={seed} jobs={len(specs)}: max start drift {drift:.2e}s"
        if not same_order:
            detail += " | start order changed"
        if not same_nodes:
            detail += " | node choices changed"
        return self._result(ok, detail)


class RuntimeScalingRelation(_SchedulerRelation):
    """Scaling every duration by k scales the schedule by exactly k.

    Multiplying runtimes, user estimates, and submit times by a common
    factor is a pure change of time unit; start times and the makespan
    must scale by the same factor to within floating-point noise.
    """

    name = "runtime-scaling"
    section = "VI (simulation methodology)"
    claim = "uniform runtime scaling scales start times and makespan by the same factor"

    FACTOR = 3.0

    def run(self, seed: int = 0) -> RelationResult:
        specs = self._specs(seed)
        k = self.FACTOR
        scaled = [
            replace(
                s,
                runtime_s=s.runtime_s * k,
                user_estimate_s=None if s.user_estimate_s is None else s.user_estimate_s * k,
                submit_time=s.submit_time * k,
            )
            for s in specs
        ]
        base = replay(specs, self.n_nodes)
        moved = replay(scaled, self.n_nodes)
        same_shape = moved.start_order() == base.start_order() and [
            n for _, _, n in moved.decisions
        ] == [n for _, _, n in base.decisions]
        rel_err = 0.0
        for (_, at_scaled, _), (_, at_base, _) in zip(moved.decisions, base.decisions):
            expect = at_base * k
            denom = max(abs(expect), 1.0)
            rel_err = max(rel_err, abs(at_scaled - expect) / denom)
        mk_err = abs(moved.makespan - base.makespan * k) / max(base.makespan * k, 1.0)
        ok = same_shape and rel_err <= 1e-9 and mk_err <= 1e-9
        detail = (
            f"seed={seed} jobs={len(specs)}: k={k:g}, max relative start error {rel_err:.2e}, "
            f"makespan error {mk_err:.2e}"
        )
        if not same_shape:
            detail += " | schedule shape changed under scaling"
        return self._result(ok, detail)


class CapacityMonotonicityRelation(_SchedulerRelation):
    """An extra idle node never hurts any job under FCFS.

    FCFS is work-conserving and order-preserving, so growing the machine
    by one idle node can only start each job no later.  (EASY backfill
    is deliberately excluded: it exhibits the classic scheduling anomaly
    where extra capacity re-orders backfill and delays individual jobs.)
    """

    name = "capacity-monotonicity"
    section = "VII-D (scheduling comparison)"
    claim = "adding an idle node never increases any job's FCFS wait time"

    def run(self, seed: int = 0) -> RelationResult:
        specs = self._specs(seed)
        small = replay(specs, self.n_nodes, FcfsScheduler())
        large = replay(specs, self.n_nodes + 1, FcfsScheduler())
        small_waits = small.wait_times(specs)
        large_waits = large.wait_times(specs)
        regressed = [
            (jid, large_waits[jid] - small_waits[jid])
            for jid in small_waits
            if large_waits[jid] > small_waits[jid] + 1e-9
        ]
        improved = sum(1 for jid in small_waits if large_waits[jid] < small_waits[jid] - 1e-9)
        ok = not regressed
        detail = (
            f"seed={seed} jobs={len(specs)}: {self.n_nodes}->{self.n_nodes + 1} nodes, "
            f"{improved} waits improved, {len(regressed)} regressed"
        )
        if regressed:
            worst = max(regressed, key=lambda r: r[1])
            detail += f" | worst: job {worst[0]} +{worst[1]:.1f}s"
        return self._result(ok, detail)


class SeedSensitivityRelation(_SchedulerRelation):
    """Reseeding changes the trace, never the safety invariants.

    Two seeds must generate genuinely different workloads (else the
    generator is broken and every same-seed oracle above is vacuous),
    and each replay must satisfy the schedule-validity invariants: no
    start before submission, no overlapping use of one node, every job
    terminal.
    """

    name = "seed-sensitivity"
    section = "VI (simulation methodology)"
    claim = "seed changes alter the trace but never schedule-validity invariants"

    def run(self, seed: int = 0) -> RelationResult:
        problems: list[str] = []
        digests = []
        for s in (seed, seed + 1):
            specs = self._specs(s)
            digests.append(tuple((x.n_nodes, round(x.runtime_s, 6), round(x.submit_time, 6)) for x in specs))
            result = replay(specs, self.n_nodes)
            by_id = {x.job_id: x for x in specs}
            busy: list[tuple[float, float, tuple[int, ...]]] = []
            for jid, (start, end) in result.spans.items():
                if start + 1e-9 < by_id[jid].submit_time:
                    problems.append(f"seed {s}: job {jid} started before submission")
                busy.append((start, end, next(n for j, _, n in result.decisions if j == jid)))
            for i, (s1, e1, n1) in enumerate(busy):
                for s2, e2, n2 in busy[i + 1 :]:
                    if s1 < e2 and s2 < e1 and set(n1) & set(n2):
                        problems.append(f"seed {s}: overlapping jobs share nodes")
        if digests[0] == digests[1]:
            problems.append(f"seeds {seed} and {seed + 1} generated identical traces")
        detail = f"seeds {seed},{seed + 1}: traces differ, schedules valid"
        if problems:
            detail = "; ".join(problems[:3])
        return self._result(not problems, detail)


class ShrinkGrowRoundTripRelation(Relation):
    """Shrink-then-grow on a saturated machine restores the allocation.

    A malleable job and a rigid filler occupy the whole pool, so after a
    shrink the freed nodes are the *only* free ones — regrowing by the
    same amount must hand back exactly the freed set, restoring the
    original allocation bit for bit (and leaking no node either way).
    Repeated with seeded random shrink sizes.
    """

    name = "shrink-grow-roundtrip"
    layer = "metamorphic"
    section = "VII-D (elastic protocol)"
    claim = "shrink-then-grow on a full machine restores the exact allocation"

    N_NODES = 32
    WIDTH = 8
    ROUNDS = 8

    def run(self, seed: int = 0) -> RelationResult:
        rng = np.random.default_rng(seed)
        pool = NodePool(range(self.N_NODES))
        elastic = Job(
            job_id=1,
            name="elastic",
            user="oracle",
            n_nodes=self.WIDTH,
            runtime_s=3600.0,
            user_estimate_s=3600.0,
            submit_time=0.0,
            min_nodes=1,
            max_nodes=self.N_NODES,
        )
        filler = Job(
            job_id=2,
            name="filler",
            user="oracle",
            n_nodes=self.N_NODES - self.WIDTH,
            runtime_s=3600.0,
            user_estimate_s=3600.0,
            submit_time=0.0,
        )
        original = pool.allocate(elastic, 0.0)
        elastic.start(0.0, original)
        filler.start(0.0, pool.allocate(filler, 0.0))
        problems: list[str] = []
        for step in range(1, self.ROUNDS + 1):
            give = int(rng.integers(1, self.WIDTH))
            victims = tuple(sorted(elastic.allocated_nodes.tolist())[-give:])
            at = float(step) * 100.0
            # A broken resize path may corrupt state enough that a later
            # round raises; surface that as a failed relation, not a crash.
            try:
                pool.shrink_allocation(elastic.job_id, victims)
                elastic.shrink(at, victims)
                regrown = pool.grow_allocation(elastic.job_id, give)
                elastic.grow(at + 50.0, regrown)
            except SchedulingError as exc:
                problems.append(f"step {step}: resize raised: {exc}")
                break
            if set(regrown.tolist()) != set(victims):
                problems.append(
                    f"step {step}: regrew {sorted(regrown.tolist())} != freed {sorted(victims)}"
                )
            if set(elastic.allocated_nodes.tolist()) != set(original.tolist()):
                problems.append(f"step {step}: allocation not restored")
            if set(pool.running[elastic.job_id].node_ids.tolist()) != set(original.tolist()):
                problems.append(f"step {step}: pool record diverged")
            if pool.n_free != 0:
                problems.append(f"step {step}: {pool.n_free} node(s) leaked")
        detail = f"seed={seed}: {self.ROUNDS} shrink/grow round-trips on a full {self.N_NODES}-node pool"
        if problems:
            detail = "; ".join(problems[:3])
        return self._result(not problems, detail)


class RackRelabelScoreRelation(Relation):
    """The placement score is invariant under rack relabelling.

    Permuting whole racks (node ``rack*R + off`` maps to
    ``perm[rack]*R + off``) preserves every within-board/chassis/rack
    group size, hence every hop-level pair count — the score must be
    bit-identical on seeded random node sets.
    """

    name = "rack-relabel-score"
    layer = "metamorphic"
    section = "II (topology model)"
    claim = "hop-level placement score unchanged under rack permutation"

    N_RACKS = 6
    TRIALS = 50

    def run(self, seed: int = 0) -> RelationResult:
        topo = Topology(nodes_per_board=2, boards_per_chassis=2, chassis_per_rack=2)
        npr = topo.nodes_per_rack
        n = npr * self.N_RACKS
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(self.TRIALS):
            k = int(rng.integers(2, 2 * npr + 1))
            nodes = tuple(int(i) for i in rng.choice(n, size=k, replace=False))
            perm = rng.permutation(self.N_RACKS)
            relabeled = tuple(int(perm[v // npr]) * npr + (v % npr) for v in nodes)
            diff = abs(placement_score(nodes, topo) - placement_score(relabeled, topo))
            worst = max(worst, diff)
        ok = worst <= 1e-12
        detail = f"seed={seed}: {self.TRIALS} node sets over {self.N_RACKS} racks, max score drift {worst:.2e}"
        return self._result(ok, detail)


class ShrinkChaosInvariantsRelation(Relation):
    """Contraction under injected node failure preserves every invariant.

    Runs the ``malleable-shrink-storm`` chaos scenario — dense point and
    burst faults against a half-elastic job mix, where failures contract
    running jobs instead of killing them — and asserts the full default
    invariant set (node conservation, width bounds, scheduler
    conservation, ...) records zero violations.
    """

    name = "shrink-chaos-invariants"
    layer = "metamorphic"
    section = "VII (failure handling)"
    claim = "failure-driven contraction violates no chaos invariant"

    def run(self, seed: int = 0) -> RelationResult:
        from repro.chaos.campaign import run_scenario

        report = run_scenario("malleable-shrink-storm", seed=seed)
        detail = (
            f"seed={seed}: {report.jobs_grown} grow(s), {report.jobs_shrunk} shrink(s), "
            f"{report.jobs_completed}/{report.jobs_submitted} completed, "
            f"{report.total_violations} violation(s)"
        )
        return self._result(report.ok, detail)


#: the metamorphic registry
METAMORPHIC_RELATIONS: tuple[Relation, ...] = (
    RelabelInvarianceRelation(),
    JitterStabilityRelation(),
    RuntimeScalingRelation(),
    CapacityMonotonicityRelation(),
    SeedSensitivityRelation(),
    ShrinkGrowRoundTripRelation(),
    RackRelabelScoreRelation(),
    ShrinkChaosInvariantsRelation(),
)
