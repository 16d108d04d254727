"""The RM engine: job lifecycle, heartbeats, user traffic, accounting.

One engine serves every RM in the comparison; behaviour differences
come from the :class:`~repro.rm.profiles.RMProfile` (costs, connection
style, fan-out structure) and from subclass hooks:

* :meth:`ResourceManager._broadcast` — how a payload reaches a set of
  nodes (centralized structures vs ESLURM's satellite/FP-Tree path);
* :meth:`ResourceManager._heartbeat_round` — who pays for the periodic
  health sweep.

The engine charges every action to :class:`DaemonAccounting`, so the
Fig. 7/9 resource curves are by-products of running the workload, and
tracks per-job *occupation time* (submission to full resource release,
Fig. 7f).
"""

from __future__ import annotations

import math
import operator
import typing as t
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.spec import Cluster
from repro.errors import ConfigurationError, SchedulingError
from repro.estimate.metrics import RuntimeEstimator
from repro.network.broadcast import BroadcastResult
from repro.network.fabric import NetworkFabric
from repro.network.message import DEFAULT_SIZES, MessageKind
from repro.network.structures import StarBroadcast, TreeBroadcast
from repro.rm.accounting import DaemonAccounting
from repro.rm.lifecycle import JobLifecycle
from repro.rm.profiles import HeartbeatStyle, LaunchStructure, RMProfile
from repro.sched.allocator import NodePool
from repro.sched.backfill import BackfillScheduler, ResizeDecision
from repro.sched.job import Job, JobState
from repro.sched.metrics import ScheduleMetrics
from repro.sched.queue import JobQueue
from repro.simkit.core import Simulator
from repro.simkit.monitor import Tally
from repro.telemetry import facade as telemetry
from repro.workload.draws import uniform


def tree_depth_estimate(n: int, width: int) -> int:
    """Depth of a width-ary fan-out over ``n`` targets (cheap bound)."""
    depth = 0
    reach = 1
    while reach < n:
        reach *= width
        depth += 1
    return depth


@dataclass
class RmReport:
    """Everything a benchmark wants to know after a run."""

    rm_name: str
    n_nodes: int
    master: dict[str, float]
    satellites: list[dict[str, float]] = field(default_factory=list)
    schedule: ScheduleMetrics | None = None
    occupation_mean_s: float = 0.0
    occupation_max_s: float = 0.0
    broadcast_mean_s: float = 0.0
    n_broadcasts: int = 0

    def summary(self) -> str:
        lines = [f"[{self.rm_name}] {self.n_nodes} nodes"]
        lines.append(
            "  master: cpu={cpu_time_min:.1f}min vmem={vmem_mb:.0f}MB "
            "rss={rss_mb:.1f}MB sockets(mean/peak)={sockets_mean:.1f}/{sockets_peak:.0f}".format(
                **self.master
            )
        )
        for i, s in enumerate(self.satellites):
            lines.append(
                f"  sat{i}: cpu={s['cpu_time_min']:.1f}min vmem={s['vmem_mb']:.0f}MB "
                f"rss={s['rss_mb']:.1f}MB sockets={s['sockets_mean']:.1f}"
            )
        if self.schedule is not None:
            lines.append("  " + self.schedule.summary().replace("\n", "\n  "))
        if self.n_broadcasts:
            lines.append(
                f"  broadcasts: n={self.n_broadcasts} mean={self.broadcast_mean_s:.3f}s"
            )
        if self.occupation_mean_s:
            lines.append(
                f"  occupation: mean={self.occupation_mean_s:.2f}s max={self.occupation_max_s:.2f}s"
            )
        return "\n".join(lines)


class ResourceManager:
    """Discrete-event resource manager driven by an :class:`RMProfile`.

    Args:
        sim: simulator owning every timer and event.
        cluster: the machine (provides nodes, failures, monitoring).
        profile: cost/behaviour constants.
        scheduler: policy object (defaults to EASY backfill, the paper's
            setting for every RM).
        estimator: optional runtime estimator; when provided, submitted
            jobs get their wall limit from it (ESLURM's framework).
        user_rpc_rate_per_s: background squeue/scancel traffic.
        sample_interval_s: accounting sample cadence (paper: 1 s).
        placement: optional :class:`~repro.sched.placement.PlacementPolicy`
            steering which free nodes allocations receive (``None`` keeps
            the byte-stable first-fit path).
    """

    rm_name = "generic"

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        profile: RMProfile,
        scheduler: t.Any = None,
        estimator: RuntimeEstimator | None = None,
        user_rpc_rate_per_s: float = 0.05,
        sample_interval_s: float = 60.0,
        placement: t.Any = None,
    ) -> None:
        if not 0 < sample_interval_s < math.inf:
            raise ConfigurationError(
                f"sample_interval_s must be positive and finite, got {sample_interval_s!r}"
            )
        if not 0 <= user_rpc_rate_per_s < math.inf:
            raise ConfigurationError(
                f"user_rpc_rate_per_s must be >= 0 and finite, got {user_rpc_rate_per_s!r}"
            )
        self.sim = sim
        self.cluster = cluster
        self.profile = profile
        self.scheduler = scheduler or BackfillScheduler()
        self.estimator = estimator
        self.fabric = NetworkFabric(sim, cluster)
        self.user_rpc_rate = user_rpc_rate_per_s
        self.sample_interval_s = sample_interval_s
        self.rm_name = profile.name
        self.master_acct = DaemonAccounting(sim, profile, f"{profile.name}.master")
        self.pool = NodePool(
            np.arange(cluster.n_nodes, dtype=np.int64), placement=placement
        )
        self.queue = JobQueue()
        self.jobs: list[Job] = []
        self._job_procs: dict[int, JobLifecycle] = {}
        self.resize_grows = 0
        self.resize_shrinks = 0
        self._occupation = Tally("occupation")
        self._bcast_tally = Tally("broadcast")
        self._started = False
        #: master-daemon crash state (Sec. II-B): while down the daemon
        #: schedules nothing and answers nobody; running jobs continue.
        self._crashed_until = -1.0
        self.crash_count = 0
        self.submit_failures = 0
        self.submits_abandoned = 0
        self._submit_rng = sim.rng.stream(f"{profile.name}.submit")
        #: connect-failure probability at this machine size (Sec. II-B:
        #: ~38 % for Slurm at 20K+ nodes)
        self.submit_fail_prob = min(
            profile.submit_fail_per_10k_nodes * cluster.n_nodes / 10_000.0, 0.6
        )
        #: persistent launch/terminate engine, built once and not
        #: memoized (launch node sets almost never recur); profiles whose
        #: structure needs a subclass override leave it None
        p = profile
        if p.launch_structure is LaunchStructure.SERIAL:
            self._launch_engine: t.Any = StarBroadcast(concurrency=1)
        elif p.launch_structure is LaunchStructure.STAR:
            self._launch_engine = StarBroadcast(concurrency=p.star_concurrency)
        elif p.launch_structure is LaunchStructure.TREE:
            self._launch_engine = TreeBroadcast(width=p.tree_width)
        else:
            self._launch_engine = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic timers; call once before running."""
        if self._started:
            return
        self._started = True
        p = self.profile
        self.master_acct.set_tracked(nodes=self.cluster.n_nodes, jobs=0)
        if p.persistent_socket_frac > 0:
            self.master_acct.sockets.open(int(p.persistent_socket_frac * self.cluster.n_nodes))
        DaemonAccounting.start_samplers(
            (self.master_acct,), self.sample_interval_s, f"{self.master_acct.owner}.sampler"
        )
        # Each periodic handler runs its body first and re-arms
        # afterwards, so a body's draws and same-tick arming come before
        # the next firing's.
        sim = self.sim

        def hb_fire() -> None:
            if not self.master_down:
                self._heartbeat_round()
            hb.arm(p.heartbeat_interval_s)

        hb = sim.timer(hb_fire, label=f"{self.rm_name}.heartbeat")
        hb.arm(p.heartbeat_interval_s)
        if self.user_rpc_rate > 0:
            rpc_rng = sim.rng.stream(f"{self.rm_name}.user_rpc")

            def rpc_fire() -> None:
                self.master_acct.charge_cpu(p.user_rpc_cpu_ms / 1e3)
                self.master_acct.sockets.pulse(1, self.estimated_response_time())
                rpc.arm(rpc_rng.exponential(1.0 / self.user_rpc_rate))

            rpc = sim.timer(rpc_fire, label=f"{self.rm_name}.user_rpc")
            rpc.arm(rpc_rng.exponential(1.0 / self.user_rpc_rate))

        def tick_fire() -> None:
            self._schedule_pass()
            tick.arm(p.scheduler_tick_s)

        tick = sim.timer(tick_fire, label=f"{self.rm_name}.sched_tick")
        tick.arm(p.scheduler_tick_s)
        if p.crash_node_hours != float("inf"):
            self._start_crash_timer()
        self.cluster.failures.subscribe(self._on_failure_event)

    def _start_crash_timer(self) -> None:
        """Two-phase master-crash timer: crash, then reboot.

        A crash orphans a fraction of the running jobs (their processes
        outlive the daemon but their bookkeeping does not); the reboot
        works through the backlog.
        """
        p = self.profile
        rng = self.sim.rng.stream(f"{self.rm_name}.crashes")
        mtbf_s = p.crash_node_hours / max(self.cluster.n_nodes, 1) * 3600.0
        rebooting = [False]

        def fire() -> None:
            if rebooting[0]:
                rebooting[0] = False
                self._schedule_pass()  # reboot: work through the backlog
                timer.arm(rng.exponential(mtbf_s))
                return
            self.crash_count += 1
            self._crashed_until = self.sim.now + p.reboot_minutes * 60.0
            victims = [
                job_id
                for job_id in list(self.pool.running)
                if rng.random() < self.CRASH_ORPHAN_FRACTION
            ]
            for job_id in victims:
                lc = self._job_procs.get(job_id)
                if lc is not None:
                    lc.kill()
            rebooting[0] = True
            timer.arm(p.reboot_minutes * 60.0)

        timer = self.sim.timer(fire, label=f"{self.rm_name}.crashes")
        timer.arm(rng.exponential(mtbf_s))

    @property
    def master_down(self) -> bool:
        """Whether the master daemon is currently crashed/rebooting."""
        return self.sim.now < self._crashed_until

    #: fraction of running jobs a master crash orphans (state-file
    #: recovery saves the rest; the paper's production crashes lost work)
    CRASH_ORPHAN_FRACTION = 0.3

    # -- job submission ----------------------------------------------------
    def submit(self, job: Job) -> None:
        """Accept a job now; assigns its wall limit and queues it.

        Submission can *fail to connect* (crashed or overloaded master);
        the user retries after a backoff, or eventually gives up — the
        load shedding the paper documents at 20K+ nodes.
        """
        if job.state is not JobState.PENDING:
            raise SchedulingError(f"job {job.job_id} is not pending")
        if job.n_nodes > self.pool.n_total:
            raise SchedulingError(
                f"job {job.job_id} wants {job.n_nodes} nodes; machine has {self.pool.n_total}"
            )
        if self.master_down or self._submit_rng.random() < self.submit_fail_prob:
            self.submit_failures += 1
            if self._submit_rng.random() < 0.75:  # most users retry later
                backoff = uniform(self._submit_rng, 600.0, 3600.0)
                self.sim.call_at(self.sim.now + backoff, lambda: self.submit(job))
            else:
                job.cancel(self.sim.now)  # user gives up
                self.jobs.append(job)
                self.submits_abandoned += 1
            return
        now = self.sim.now
        if self.estimator is not None:
            estimate = self.estimator.estimate(job, now)
            if estimate is not None:
                # Model estimates steer backfill *planning* only; the
                # kill limit stays the user's request, so an
                # underestimate never kills a job (Section V-B's whole
                # point is avoiding failure-and-reschedule).
                job.planned_s = max(float(estimate), 60.0)
        self.jobs.append(job)
        self.queue.submit(job)
        self.master_acct.charge_cpu(self.profile.user_rpc_cpu_ms / 1e3)
        self.master_acct.set_tracked(jobs=len(self.pool.running) + len(self.queue))
        self._schedule_pass()

    def run_trace(self, jobs: t.Sequence[Job], until: float | None = None) -> None:
        """Schedule trace submissions as one arrival stream and run.

        The submissions go on the heap as a single
        :meth:`~repro.simkit.Simulator.call_each` stream in
        ``submit_time`` order (ties in trace order).

        Args:
            jobs: jobs with finite absolute ``submit_time`` values >= now;
                any other time raises :class:`SchedulingError` before
                anything is scheduled.
            until: stop time (defaults to running the heap dry — note
                the heartbeat loop never ends, so pass a horizon).
        """
        now = self.sim.now
        for job in jobs:
            if not now <= job.submit_time < math.inf:
                raise SchedulingError(
                    f"job {job.job_id} submits at {job.submit_time}, "
                    f"not a finite time >= now ({now})"
                )
        order = sorted(jobs, key=operator.attrgetter("submit_time"))
        self.start()
        arrivals = iter(order)
        self.sim.call_each(
            [job.submit_time for job in order], lambda: self.submit(next(arrivals))
        )
        if until is not None:
            self.sim.run(until=until)

    # -- scheduling -----------------------------------------------------------
    def _schedule_pass(self) -> None:
        if self.master_down:
            return
        self.master_acct.charge_cpu(
            self.profile.sched_cpu_ms / 1e3 * max(1, min(len(self.queue), 100))
        )
        tel = telemetry.active()
        if tel is not None:
            tel.observe("sched.queue_depth", len(self.queue))
        decisions = self.scheduler.plan(self.queue, self.pool, self.sim.now)
        if tel is not None:
            tel.count("sched.passes")
            tel.count("sched.decisions", len(decisions))
        self._launch_decisions(decisions)
        self._elastic_pass()

    def _launch_decisions(self, decisions: list[tuple[Job, np.ndarray]]) -> None:
        for job, nodes in decisions:
            lc = JobLifecycle(self, job, nodes)
            self._job_procs[job.job_id] = lc
            lc.begin()

    # -- malleability --------------------------------------------------------
    def _elastic_pass(self) -> None:
        """Grow/contract running elastic jobs after the start decisions."""
        plan_resizes = getattr(self.scheduler, "plan_resizes", None)
        if plan_resizes is None:
            return
        resizes = plan_resizes(self.queue, self.pool, self.sim.now)
        if not resizes:
            return
        shrank = self._apply_resizes(resizes)
        if shrank:
            # Contraction freed nodes for a blocked head: admit it now
            # rather than waiting for the next event.
            self._launch_decisions(self.scheduler.plan(self.queue, self.pool, self.sim.now))

    def _apply_resizes(self, resizes: list[ResizeDecision]) -> bool:
        """Apply scheduler resize decisions; returns whether any shrank.

        The pool side is already mutated (the scheduler allocates, same
        as ``plan``); this applies the job, accounting and
        lifecycle-retiming side.
        """
        tel = telemetry.active()
        shrank = False
        for dec in resizes:
            self._apply_one_resize(dec)
            if tel is not None:
                tel.count("sched.resize.decisions")
                if len(dec.added):
                    tel.count("sched.grow.nodes", len(dec.added))
                if len(dec.removed):
                    tel.count("sched.shrink.nodes", len(dec.removed))
            shrank = shrank or len(dec.removed) > 0
        return shrank

    def _apply_one_resize(self, dec: ResizeDecision) -> None:
        job = dec.job
        now = self.sim.now
        p = self.profile
        self.master_acct.charge_cpu(
            p.launch_cpu_per_node_us / 1e6 * (len(dec.added) + len(dec.removed))
        )
        if len(dec.added):
            job.grow(now, dec.added)
            self.resize_grows += 1
        if len(dec.removed):
            job.shrink(now, dec.removed)
            self.resize_shrinks += 1
        self._retime(job)

    def _retime(self, job: Job) -> None:
        """Refresh the reservation belief and the work-loop timer.

        ``job.alloc_node_seconds`` was just brought up to date by
        grow/shrink, so the remaining kill budget (node-seconds against
        the wall limit at the *requested* width) divided by the new
        width is the new believed wall deadline.
        """
        width = max(len(job.allocated_nodes), 1)
        remaining_kill = max(job.limit_s * job.n_nodes - job.alloc_node_seconds, 0.0)
        self.pool.retime(job.job_id, self.sim.now + remaining_kill / width)
        lc = self._job_procs.get(job.job_id)
        if lc is not None:
            lc.retime()

    def _release(self, job: Job) -> None:
        self._job_procs.pop(job.job_id, None)
        # The pool record, not the launch-time tuple, is the allocation
        # of record — resizes may have changed it since the job started.
        self.pool.release(job.job_id)
        self._occupation.record(self.sim.now - job.submit_time)
        self.master_acct.set_tracked(jobs=len(self.pool.running) + len(self.queue))
        if self.estimator is not None and job.end_time is not None:
            self.estimator.observe(job, self.sim.now)
        self._schedule_pass()

    # -- broadcast dispatch ----------------------------------------------------
    def _broadcast(self, kind: MessageKind, targets: t.Sequence[int]) -> BroadcastResult:
        """Deliver ``kind`` to ``targets``; subclasses override routing."""
        p = self.profile
        size = DEFAULT_SIZES[kind]
        root = self.cluster.master_id
        n = len(targets)
        # Synchronous slave ack/prolog wait: serial pays per node, a star
        # amortises over its worker pool, a tree only per level.
        if p.launch_structure is LaunchStructure.SERIAL:
            self.master_acct.charge_cpu(p.rpc_cpu_us / 1e6 * n)
            telemetry.count("rm.master.msgs", n)
            ack_wait = p.launch_ack_s * n
        elif p.launch_structure is LaunchStructure.STAR:
            self.master_acct.charge_cpu(p.rpc_cpu_us / 1e6 * n)
            telemetry.count("rm.master.msgs", n)
            ack_wait = p.launch_ack_s * n / p.star_concurrency
        elif p.launch_structure is LaunchStructure.TREE:
            # master only seeds the first layer; relays do the rest
            self.master_acct.charge_cpu(p.rpc_cpu_us / 1e6 * min(p.tree_width, n))
            telemetry.count("rm.master.msgs", min(p.tree_width, n))
            ack_wait = p.launch_ack_s * max(tree_depth_estimate(n, p.tree_width), 1)
        else:
            raise ConfigurationError(
                f"profile {p.name}: {p.launch_structure} needs a subclass override"
            )
        result = self._launch_engine.simulate(root, targets, size, self.fabric)
        result.makespan_s += ack_wait
        concurrent = min(len(targets), p.star_concurrency)
        if result.makespan_s > 0:
            self.master_acct.sockets.pulse(concurrent, result.makespan_s)
        tel = telemetry.active()
        if tel is not None:
            tel.count("rm.broadcasts")
            tel.observe("rm.broadcast.makespan_s", result.makespan_s)
            if result.failed:
                tel.count("rm.broadcast.undelivered", len(result.failed))
        return result

    # -- heartbeats ------------------------------------------------------------
    def _heartbeat_round(self) -> None:
        """Cost of one health sweep; subclasses override the satellite path."""
        telemetry.count("rm.heartbeat_rounds")
        p = self.profile
        n = self.cluster.n_nodes
        if p.heartbeat_style is HeartbeatStyle.DIRECT:
            self.master_acct.charge_cpu(p.rpc_cpu_us / 1e6 * n)
            telemetry.count("rm.master.msgs", n)
        elif p.heartbeat_style is HeartbeatStyle.TREE:
            # seed the fan-out + aggregate the responses
            self.master_acct.charge_cpu(
                p.rpc_cpu_us / 1e6 * p.tree_width + 0.2 * p.rpc_cpu_us / 1e6 * n
            )
            telemetry.count("rm.master.msgs", min(p.tree_width, n))
        else:
            raise ConfigurationError(
                f"profile {p.name}: {p.heartbeat_style} needs a subclass override"
            )
        if p.burst_socket_frac > 0:
            self.master_acct.sockets.pulse(int(p.burst_socket_frac * n), 1.0)

    # -- background user traffic ------------------------------------------------
    def estimated_response_time(self) -> float:
        """User-visible RPC latency under the current master load.

        An M/M/1-style blow-up: service time inflated by 1/(1-ρ) where ρ
        is the recent CPU utilisation — this is what the §II-B
        motivation numbers (27 s responses at 20K+ nodes) come from.
        """
        service = self.profile.user_rpc_cpu_ms / 1e3
        rho = min(self.master_acct.cpu_util.last(), 0.999)
        return service / (1.0 - rho)

    # -- failures -----------------------------------------------------------------
    def _on_failure_event(self, kind: str, node_ids: t.Sequence[int], when: float) -> None:
        # Master/satellite failures carry non-compute ids the scheduler
        # pool does not manage; their handling lives elsewhere.
        if kind == "recover":
            for nid in node_ids:
                if self.pool.has_node(nid):
                    self.pool.mark_up(nid)
            return
        killed: set[int] = set()
        for nid in node_ids:
            if not self.pool.has_node(nid):
                continue
            victim = self.pool.mark_down(nid)
            if victim is None:
                continue
            rec = self.pool.running.get(victim)
            job = rec.job if rec is not None else None
            if (
                job is not None
                and victim not in killed
                and job.malleable
                and job.state is JobState.RUNNING
                and len(rec.node_ids) > job.min_nodes
            ):
                # Malleable job above its floor: contract around the
                # dead node instead of killing the whole job.
                self.pool.shrink_allocation(victim, (nid,))
                job.shrink(self.sim.now, (nid,))
                self.resize_shrinks += 1
                telemetry.count("sched.shrink.on_failure")
                self._retime(job)
            else:
                killed.add(victim)
        for job_id in killed:
            lc = self._job_procs.get(job_id)
            if lc is not None:
                lc.kill()

    # -- reporting ----------------------------------------------------------------
    def report(self, horizon_s: float | None = None) -> RmReport:
        """Collect the run's results (schedule metrics need ``horizon_s``)."""
        sched = (
            ScheduleMetrics.from_jobs(self.jobs, self.pool.n_total, horizon_s=horizon_s)
            if self.jobs
            else None
        )
        return RmReport(
            rm_name=self.rm_name,
            n_nodes=self.cluster.n_nodes,
            master=self.master_acct.summary(),
            satellites=[],
            schedule=sched,
            occupation_mean_s=self._occupation.mean,
            occupation_max_s=self._occupation.max,
            broadcast_mean_s=self._bcast_tally.mean,
            n_broadcasts=self._bcast_tally.n,
        )
