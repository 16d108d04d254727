"""The differential engine: paired simulations, paper-shaped orderings.

Simulators with no ground truth are checked the way the paper argues
its claims: *relatively*.  Each relation here runs two arms on an
identical seeded workload and asserts the ordering the paper reports —
the master does strictly less work once satellites exist (Section III /
VII-B), the FP-Tree bounds broadcast latency under injected failures
(Section IV), and AEA-gated model adoption never loses to raw user
estimates (Section V).  Same seed, same workload generator, same
cluster build: any difference between the arms is the treatment, not
the noise.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.api import (
    SimulationConfig,
    TelemetryConfig,
    canonical_json,
    run_simulation,
)
from repro.cluster.failures import FailureModel
from repro.cluster.spec import ClusterSpec
from repro.cluster.topology import Topology
from repro.estimate.framework import EslurmEstimator, EstimatorConfig
from repro.fptree.constructor import FPTreeBroadcast
from repro.fptree.predictor import OraclePredictor
from repro.network.fabric import NetworkFabric
from repro.network.structures import TreeBroadcast
from repro.oracle.relations import MASTER_LOAD_NODE_THRESHOLD, Relation, RelationResult
from repro.rm.eslurm import EslurmRM
from repro.sched.backfill import BackfillScheduler
from repro.sched.job import JobState
from repro.sched.placement import TopologyAwarePlacement, placement_score
from repro.simkit.core import Simulator
from repro.workload.synthetic import WorkloadConfig, generate_trace

DAY = 86_400.0


class MasterOffloadRelation(Relation):
    """slurm vs eslurm on one workload: the master must get cheaper.

    Both arms replay the identical seeded job stream on the identical
    machine; above :data:`~repro.oracle.relations.MASTER_LOAD_NODE_THRESHOLD`
    nodes the ESLURM master must be strictly lower on CPU time, socket
    peak, and messages sent (the ``rm.master.msgs`` telemetry counter) —
    the satellites absorbed that load or the architecture is broken.
    """

    name = "master-offload"
    layer = "differential"
    section = "III, VII-B (Fig. 7)"
    claim = "ESLURM master CPU/sockets/messages strictly below Slurm's at >= threshold nodes"

    def __init__(
        self,
        n_nodes: int = 2 * MASTER_LOAD_NODE_THRESHOLD,
        n_satellites: int = 4,
        n_jobs: int = 120,
        horizon_s: float = 2 * 3600.0,
    ) -> None:
        self.n_nodes = n_nodes
        self.n_satellites = n_satellites
        self.n_jobs = n_jobs
        self.horizon_s = horizon_s

    def _arm(self, rm: str, seed: int) -> dict[str, float]:
        workload = WorkloadConfig(
            jobs_per_day=self.n_jobs * DAY / (0.6 * self.horizon_s),
            max_nodes=max(1, self.n_nodes // 4),
            name=f"oracle-{self.name}",
        )
        result = run_simulation(
            SimulationConfig(
                rm=rm,
                n_nodes=self.n_nodes,
                n_satellites=self.n_satellites,
                seed=seed,
                n_jobs=self.n_jobs,
                horizon_s=self.horizon_s,
                workload=workload,
                telemetry=TelemetryConfig(enabled=True),
            )
        )
        assert result.telemetry is not None
        return {
            "cpu_time_min": result.report.master["cpu_time_min"],
            "sockets_peak": result.report.master["sockets_peak"],
            "master_msgs": float(result.telemetry["counters"].get("rm.master.msgs", 0.0)),
        }

    def run(self, seed: int = 0) -> RelationResult:
        slurm = self._arm("slurm", seed)
        eslurm = self._arm("eslurm", seed)
        breaches = [
            f"{key}: eslurm {eslurm[key]:.4g} !< slurm {slurm[key]:.4g}"
            for key in ("cpu_time_min", "sockets_peak", "master_msgs")
            if not eslurm[key] < slurm[key]
        ]
        detail = (
            f"n={self.n_nodes} seed={seed}: "
            f"cpu {eslurm['cpu_time_min']:.3f} vs {slurm['cpu_time_min']:.3f} min, "
            f"sockets {eslurm['sockets_peak']:.0f} vs {slurm['sockets_peak']:.0f}, "
            f"msgs {eslurm['master_msgs']:.0f} vs {slurm['master_msgs']:.0f}"
        )
        if breaches:
            detail += " | " + "; ".join(breaches)
        return self._result(not breaches, detail)


class FPTreeFailureBoundRelation(Relation):
    """FP-Tree vs plain k-ary broadcast under injected leaf failures.

    Same fabric, same dead set, perfect prediction (the ablation upper
    bound): the FP-Tree makespan must never exceed the plain tree's,
    must beat it strictly when a dead node sits on an inner position of
    the naive layout, and must stay within one dead-node penalty of the
    healthy makespan — Section IV's bound: predicted-failed nodes demote
    to leaves, where a timeout delays nobody downstream.
    """

    name = "fptree-failure-bound"
    layer = "differential"
    section = "IV (Fig. 3/4), VII-A (Fig. 8)"
    claim = "FP-Tree broadcast latency under failures <= plain k-ary, bounded by healthy + 1 timeout"

    def __init__(self, n_nodes: int = 256, width: int = 8, n_dead: int = 12, size_bytes: int = 1024) -> None:
        self.n_nodes = n_nodes
        self.width = width
        self.n_dead = n_dead
        self.size_bytes = size_bytes

    def run(self, seed: int = 0) -> RelationResult:
        sim = Simulator(seed=seed)
        cluster = ClusterSpec(
            n_nodes=self.n_nodes,
            n_satellites=1,
            failure_model=FailureModel.disabled(),
            name=f"oracle-{self.name}",
        ).build(sim)
        fabric = NetworkFabric(sim, cluster)
        targets = cluster.compute_ids()
        rng = np.random.default_rng(seed)
        dead = {int(i) for i in rng.choice(self.n_nodes, size=self.n_dead, replace=False)}
        # Guarantee at least one dead node on an *inner* position of the
        # naive layout (position 1 of [root]+targets is always inner for
        # width >= 2 and n > width) so the strict ordering is decidable.
        dead.add(targets[0])
        root = cluster.master_id
        healthy = TreeBroadcast(width=self.width).simulate(root, targets, self.size_bytes, fabric)
        cluster.fail_nodes(sorted(dead))
        plain = TreeBroadcast(width=self.width).simulate(root, targets, self.size_bytes, fabric)
        fp = FPTreeBroadcast(OraclePredictor(cluster), width=self.width).simulate(
            root, targets, self.size_bytes, fabric
        )
        penalty = fabric.config.dead_node_penalty_s
        slack = self.width * fabric.config.send_overhead_s + 1e-9
        bounded = fp.makespan_s <= healthy.makespan_s + penalty + slack
        ordered = fp.makespan_s < plain.makespan_s
        delivered = len(fp.failed) == len(dead)
        detail = (
            f"n={self.n_nodes} w={self.width} dead={len(dead)} seed={seed}: "
            f"healthy {healthy.makespan_s:.4f}s, plain {plain.makespan_s:.4f}s, "
            f"fp {fp.makespan_s:.4f}s (penalty {penalty:.1f}s)"
        )
        if not ordered:
            detail += " | fp !< plain with a dead inner node"
        if not bounded:
            detail += " | fp exceeds healthy + one timeout"
        if not delivered:
            detail += f" | fp missed {len(dead) - len(fp.failed)} dead-node timeouts"
        return self._result(ordered and bounded and delivered, detail)


class EstimatorGateRelation(Relation):
    """AEA-gated model adoption vs raw user estimates, replayed offline.

    The framework replays a seeded trace job by job (estimate at
    submission, observe at completion).  Over every job that carries a
    user estimate, the runtime-weighted absolute error of the *gated*
    estimates must not exceed the user estimates' error (small tolerance
    for ties): the AEA gate exists precisely so the model is only
    trusted where it has proven itself (Section V, Table VIII).
    """

    name = "estimator-aea-gate"
    layer = "differential"
    section = "V (Eq. 3-5), VII-C (Table VIII)"
    claim = "AEA-gated estimates never worse than user estimates on runtime-weighted error"

    #: multiplicative tolerance on the error ratio — the gate guarantees
    #: "not worse", not "always strictly better", and the last few
    #: pre-training jobs are pass-through ties.
    TOLERANCE = 1.02

    def __init__(self, n_jobs: int = 500, k_clusters: int = 12) -> None:
        self.n_jobs = n_jobs
        self.k_clusters = k_clusters

    def run(self, seed: int = 0) -> RelationResult:
        jobs = generate_trace(
            WorkloadConfig(n_users=16, n_apps=12, jobs_per_day=2000.0, max_nodes=64),
            self.n_jobs,
            seed=seed,
        )
        estimator = EslurmEstimator(
            EstimatorConfig(k_clusters=self.k_clusters), rng=np.random.default_rng(seed)
        )
        gated_num = user_num = weight_sum = 0.0
        n_scored = 0
        for job in jobs:
            estimate = estimator.estimate(job, job.submit_time)
            if job.user_estimate_s is not None:
                gated = estimate if estimate is not None else job.user_estimate_s
                weight = job.runtime_s
                gated_num += weight * abs(gated - job.runtime_s)
                user_num += weight * abs(job.user_estimate_s - job.runtime_s)
                weight_sum += weight
                n_scored += 1
            estimator.observe(job, job.submit_time)
        if weight_sum == 0:
            return self._result(False, f"seed={seed}: no jobs carried user estimates")
        gated_err = gated_num / weight_sum
        user_err = user_num / weight_sum
        ok = gated_err <= user_err * self.TOLERANCE
        detail = (
            f"seed={seed} jobs={n_scored}: weighted error gated {gated_err:.1f}s "
            f"vs user {user_err:.1f}s (ratio {gated_err / user_err:.3f})"
        )
        return self._result(ok, detail)


class MalleableThroughputRelation(Relation):
    """Elastic vs rigid replay of one trace through the full engine.

    Both arms run the *identical* seeded trace on the identical machine;
    the malleable arm enables the scheduler's elastic protocol (shrunk
    starts into partial holes, growth into backfill holes), the rigid
    arm strips every ``min_nodes``/``max_nodes`` declaration.  The
    protocol is work-conserving — a job always burns the same total
    node-seconds — so flexibility can only move work *earlier*: within
    the fixed horizon the malleable arm must complete at least as many
    jobs as the rigid arm.
    """

    name = "malleable-throughput"
    layer = "differential"
    section = "VII-D (scheduling comparison)"
    claim = "elastic jobs complete at least as many jobs as the rigid replay of the same trace"

    def __init__(
        self,
        n_nodes: int = 64,
        n_satellites: int = 2,
        n_jobs: int = 80,
        horizon_s: float = 4 * 3600.0,
    ) -> None:
        self.n_nodes = n_nodes
        self.n_satellites = n_satellites
        self.n_jobs = n_jobs
        self.horizon_s = horizon_s

    def _trace(self, seed: int, rigid: bool):
        cfg = WorkloadConfig(
            n_users=12,
            n_apps=10,
            apps_per_user=2,
            jobs_per_day=self.n_jobs * DAY / (0.6 * self.horizon_s),
            max_nodes=max(1, self.n_nodes // 4),
            long_job_fraction=0.1,
            burst_mean=2.0,
            malleable_fraction=0.5,
            name=f"oracle-{self.name}",
        )
        jobs = generate_trace(cfg, self.n_jobs, seed=seed)
        if rigid:
            for job in jobs:
                job.min_nodes = job.max_nodes = job.n_nodes
        return jobs

    def _arm(self, seed: int, malleable: bool) -> tuple[int, int, int]:
        sim = Simulator(seed=seed)
        cluster = ClusterSpec(
            n_nodes=self.n_nodes,
            n_satellites=self.n_satellites,
            failure_model=FailureModel.disabled(),
            name=f"oracle-{self.name}",
        ).build(sim)
        kwargs = {"scheduler": BackfillScheduler(malleable=True)} if malleable else {}
        rm = EslurmRM(sim, cluster, **kwargs)
        rm.run_trace(self._trace(seed, rigid=not malleable), until=self.horizon_s)
        done = sum(1 for j in rm.jobs if j.state is JobState.COMPLETED)
        return done, rm.resize_grows, rm.resize_shrinks

    def run(self, seed: int = 0) -> RelationResult:
        rigid_done, _, _ = self._arm(seed, malleable=False)
        mall_done, grows, shrinks = self._arm(seed, malleable=True)
        ok = mall_done >= rigid_done
        detail = (
            f"n={self.n_nodes} seed={seed}: malleable completed {mall_done} "
            f"vs rigid {rigid_done} of {self.n_jobs} "
            f"({grows} grow(s), {shrinks} shrink(s))"
        )
        if not ok:
            detail += " | malleable arm completed fewer jobs"
        return self._result(ok, detail)


class _FirstFitProbe:
    """First-fit placement that shadows a topology pick on every state.

    The replay pool allocates exactly what first-fit would (so the
    trajectory is the baseline's), while a wrapped
    :class:`TopologyAwarePlacement` is asked what it *would* pick from
    the identical free set — making the fragmentation comparison
    pointwise on the same pool state rather than across two divergent
    schedules.
    """

    def __init__(self, topology: Topology) -> None:
        import heapq

        self._nsmallest = heapq.nsmallest
        self.topology = topology
        self.shadow = TopologyAwarePlacement(topology)
        self.ff_score_sum = 0.0
        self.worse = 0
        self.compared = 0

    def select(self, free: t.AbstractSet[int], k: int) -> tuple[int, ...] | None:
        if len(free) < k:
            return None
        ff = tuple(self._nsmallest(k, free))
        shadow_pick = self.shadow.select(free, k)
        self.compared += 1
        self.ff_score_sum += placement_score(ff, self.topology)
        if shadow_pick is not None and (
            placement_score(shadow_pick, self.topology)
            > placement_score(ff, self.topology) + 1e-9
        ):
            self.worse += 1
        return ff


class TopologyPlacementRelation(Relation):
    """Topology-aware vs first-fit placement, compared state by state.

    One replay of a rigid trace drives the pool with first-fit choices;
    at every allocation the topology policy is asked for its pick from
    the *identical* free set.  Two orderings are pinned: the topology
    pick never scores worse than first-fit's on any pool state (the
    policy keeps the first-fit candidate as a floor), and with a
    deterministic alert-flag set injected into a second full replay the
    policy never picks a flagged node while an all-clean feasible set
    exists (``flagged_despite_clean == 0``).
    """

    name = "topology-fragmentation"
    layer = "differential"
    section = "II (monitoring hierarchy), IV (alert steering)"
    claim = "topology placement never fragments worse than first-fit on any pool state, clean-first"

    n_nodes = 64
    n_jobs = 80
    n_flagged = 6

    def run(self, seed: int = 0) -> RelationResult:
        from repro.oracle.metamorphic import _base_specs, replay

        # 16-node racks so a 64-node machine spans 4 racks and the
        # cross-rack penalty is actually reachable.
        topo = Topology(nodes_per_board=4, boards_per_chassis=2, chassis_per_rack=2)
        specs = _base_specs(seed, self.n_jobs, max_nodes=self.n_nodes // 2)
        probe = _FirstFitProbe(topo)
        replay(specs, self.n_nodes, placement=probe)
        ok_frag = probe.worse == 0 and probe.compared > 0
        topo_mean = probe.shadow.stats.mean_score
        ff_mean = probe.ff_score_sum / probe.compared if probe.compared else 0.0
        rng = np.random.default_rng(seed)
        flagged = {int(i) for i in rng.choice(self.n_nodes, size=self.n_flagged, replace=False)}
        averse = TopologyAwarePlacement(topo, alert_source=lambda: flagged)
        replay(specs, self.n_nodes, placement=averse)
        ok_clean = averse.stats.flagged_despite_clean == 0
        detail = (
            f"seed={seed} jobs={self.n_jobs}: {probe.compared} states, mean hop score "
            f"topology {topo_mean:.4f} vs first-fit {ff_mean:.4f}; "
            f"{averse.stats.flagged_selected} flagged pick(s), "
            f"{averse.stats.flagged_despite_clean} despite a clean set"
        )
        if not ok_frag:
            detail += f" | topology scored worse on {probe.worse} pool state(s)"
        if not ok_clean:
            detail += " | flagged node chosen while a clean feasible set existed"
        return self._result(ok_frag and ok_clean, detail)


class SnapshotEquivalenceRelation(Relation):
    """Straight run vs snapshot/resume of the identical day, byte for byte.

    One config is run three ways: straight to the horizon, paused at an
    event boundary k and *warm*-resumed, and cold-restored at k (rebuild
    from config, replay k events, verified state digest) then resumed.
    All three must produce the identical golden trace hash (the
    ``add_trace_hook`` seam — every event's exact ``(time, priority,
    seq)``) and the identical canonical final payload.  Checked for both
    backends at sampled split points including the k=0 and k=last
    degenerate cuts — the guarantee ``repro whatif`` and the ``what-if``
    request kind rest on.
    """

    name = "snapshot-equivalence"
    layer = "differential"
    section = "VI (simulation methodology), VII (what-if evaluation)"
    claim = "resume-from-snapshot is byte-identical to the straight run (trace hash + payload)"

    def __init__(
        self,
        n_nodes: int = 32,
        n_satellites: int = 2,
        n_jobs: int = 30,
        horizon_s: float = DAY,
    ) -> None:
        # A full-day horizon: the synthetic trace anchors submissions to
        # diurnal hours, so a short horizon would compare empty machines.
        self.n_nodes = n_nodes
        self.n_satellites = n_satellites
        self.n_jobs = n_jobs
        self.horizon_s = horizon_s

    def _config(self, rm: str, seed: int) -> SimulationConfig:
        return SimulationConfig(
            rm=rm,
            n_nodes=self.n_nodes,
            n_satellites=self.n_satellites,
            seed=seed,
            failures=rm == "eslurm",  # exercise fault paths on one arm
            n_jobs=self.n_jobs,
            horizon_s=self.horizon_s,
        )

    @staticmethod
    def _finish(world: "SimWorld", digest: "TraceDigest") -> tuple[str, str]:
        world.run_to_horizon()
        return digest.hexdigest(), canonical_json(world.final_payload())

    def _arm(self, rm: str, seed: int) -> list[str]:
        from repro.snapshot import SimWorld, capture, restore

        config = self._config(rm, seed)
        straight_world = SimWorld(config)
        straight_digest = straight_world.attach_trace_digest()
        straight = self._finish(straight_world, straight_digest)
        n = straight_world.sim.events_processed
        breaches: list[str] = []
        for k in sorted({0, n // 3, (2 * n) // 3, n}):
            # warm: pause the live world at k, capture, resume it
            warm_world = SimWorld(config)
            warm_digest = warm_world.attach_trace_digest()
            warm_world.run_events_until(k)
            snapshot = capture(warm_world)
            warm = self._finish(warm_world, warm_digest)
            if warm != straight:
                breaches.append(f"{rm} k={k}: warm resume diverged")
                continue
            # cold: rebuild from config, replay k (digest-verified), resume
            holder: dict[str, t.Any] = {}

            def _hook(world: "SimWorld") -> None:
                holder["digest"] = world.attach_trace_digest()

            cold_world = restore(snapshot, verify=True, on_build=_hook)
            cold = self._finish(cold_world, holder["digest"])
            if cold != straight:
                breaches.append(f"{rm} k={k}: cold restore diverged")
        return breaches

    def run(self, seed: int = 0) -> RelationResult:
        breaches: list[str] = []
        for rm in ("slurm", "eslurm"):
            breaches.extend(self._arm(rm, seed))
        detail = (
            f"n={self.n_nodes} jobs={self.n_jobs} seed={seed}: "
            f"slurm+eslurm x {{0, n/3, 2n/3, n}} cuts, warm+cold"
        )
        if breaches:
            detail += " | " + "; ".join(breaches)
        return self._result(not breaches, detail)


class LifecycleEquivalenceRelation(Relation):
    """Flat FSM lifecycle vs the generator reference, byte for byte.

    Both arms replay the identical seeded trace on the identical
    machine; the only difference is the job-lifecycle engine
    (``lifecycle="fsm"`` vs ``"generator"``).  Every *observable* —
    master accounting, schedule metrics, broadcast counts, and every
    domain telemetry counter and histogram — must be byte-identical
    under canonical JSON.  The comparison strips exactly two groups of
    keys: host-clock metrics (``host.*``, wall-time noise) and the
    event-loop's own shape (``sim.events``, ``sim.heap.depth``) — the
    flat timer lane exists precisely to dispatch fewer heap events, so
    the event count is the mechanism under test, not an observable of
    the modelled system.  That saving is pinned as an ordering instead:
    the FSM arm must not process more events than the generator arm.
    """

    name = "lifecycle-equivalence"
    layer = "differential"
    section = "VI (simulation methodology)"
    claim = "FSM lifecycle byte-identical to the generator reference on all observables"

    #: telemetry keys describing the event loop itself, excluded from
    #: the byte-compare (see class docstring)
    EVENT_LOOP_KEYS = frozenset({"sim.events", "sim.heap.depth"})

    def __init__(
        self,
        n_nodes: int = 256,
        n_satellites: int = 2,
        n_jobs: int = 60,
        horizon_s: float = DAY,
    ) -> None:
        self.n_nodes = n_nodes
        self.n_satellites = n_satellites
        self.n_jobs = n_jobs
        self.horizon_s = horizon_s

    def _observable(self, tel: dict[str, dict[str, t.Any]]) -> dict[str, t.Any]:
        return {
            section: {
                key: value
                for key, value in metrics.items()
                if not key.startswith("host.") and key not in self.EVENT_LOOP_KEYS
            }
            for section, metrics in tel.items()
        }

    def _arm(
        self, rm: str, lifecycle: str, seed: int, malleable: bool
    ) -> tuple[str, float]:
        from dataclasses import asdict

        result = run_simulation(
            SimulationConfig(
                rm=rm,
                n_nodes=self.n_nodes,
                n_satellites=self.n_satellites,
                seed=seed,
                failures=True,
                n_jobs=self.n_jobs,
                horizon_s=self.horizon_s,
                malleable=malleable,
                telemetry=TelemetryConfig(enabled=True),
                lifecycle=lifecycle,
            )
        )
        rep = result.report
        assert result.telemetry is not None
        payload = canonical_json(
            {
                "master": dict(rep.master),
                "schedule": asdict(rep.schedule) if rep.schedule is not None else None,
                "n_broadcasts": rep.n_broadcasts,
                "occupation_mean_s": rep.occupation_mean_s,
                "telemetry": self._observable(result.telemetry),
            }
        )
        events = float(result.telemetry["counters"].get("sim.events", 0.0))
        return payload, events

    def run(self, seed: int = 0) -> RelationResult:
        breaches: list[str] = []
        savings: list[str] = []
        for rm, malleable in (("eslurm", True), ("slurm", False)):
            fsm, fsm_events = self._arm(rm, "fsm", seed, malleable)
            gen, gen_events = self._arm(rm, "generator", seed, malleable)
            if fsm != gen:
                breaches.append(f"{rm}: observables diverged between lifecycle engines")
            if fsm_events > gen_events:
                breaches.append(
                    f"{rm}: fsm dispatched {fsm_events:.0f} events !<= "
                    f"generator's {gen_events:.0f}"
                )
            savings.append(f"{rm} {fsm_events:.0f}/{gen_events:.0f} events")
        detail = (
            f"n={self.n_nodes} jobs={self.n_jobs} seed={seed}: "
            f"fsm vs generator byte-identical ({', '.join(savings)})"
        )
        if breaches:
            detail += " | " + "; ".join(breaches)
        return self._result(not breaches, detail)


#: the differential registry, in paper-section order
DIFFERENTIAL_RELATIONS: tuple[Relation, ...] = (
    MasterOffloadRelation(),
    FPTreeFailureBoundRelation(),
    EstimatorGateRelation(),
    MalleableThroughputRelation(),
    TopologyPlacementRelation(),
    SnapshotEquivalenceRelation(),
    LifecycleEquivalenceRelation(),
)
