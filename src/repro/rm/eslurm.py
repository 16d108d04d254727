"""ESLURM: the hierarchical RM with satellites, FP-Tree, and estimation.

Differences from the centralized engine, all per Section III–V:

* **broadcasts** never fan out from the master: the target list is
  split across N satellites (Eq. 1, round-robin over RUNNING ones);
  each satellite builds an FP-Tree over its sub-list and relays.  The
  master only pays for N satellite RPCs and N sockets;
* **satellite failover**: a satellite dying mid-task moves the task to
  the next satellite (at most twice), then the master takes over with
  a plain fan-out tree;
* **heartbeats** follow the same satellite path and cost CPU and
  sockets only: the master pays one RPC per running satellite, each
  satellite an equal share of the sweep.  No heartbeat builds an
  FP-Tree; the FP-Tree acts on launch and terminate relays;
* **job wall limits** come from the runtime-estimation framework when
  one is attached (``estimator="auto"`` builds the paper's default).
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.cluster.spec import Cluster
from repro.estimate.framework import EslurmEstimator, EstimatorConfig
from repro.fptree.constructor import FPTreeBroadcast
from repro.fptree.predictor import FailurePredictor, MonitorAlertPredictor, NullPredictor
from repro.network.broadcast import BroadcastResult
from repro.network.message import DEFAULT_SIZES, MessageKind
from repro.network.structures import TreeBroadcast
from repro.rm.accounting import DaemonAccounting
from repro.rm.base import ResourceManager, tree_depth_estimate
from repro.rm.profiles import ESLURM as ESLURM_PROFILE
from repro.rm.profiles import RMProfile
from repro.rm.satellite import SatelliteDaemon, SatelliteEvent, SatellitePool
from repro.simkit.core import Simulator
from repro.telemetry import facade as telemetry

#: Satellites hold relay state for the whole machine but almost no
#: per-job state; their memory constants differ from the master's.
SATELLITE_PROFILE = ESLURM_PROFILE.with_overrides(
    name="eslurm-satellite",
    base_vmem_mb=150.0,
    vmem_per_node_kb=350.0,
    vmem_per_job_kb=0.0,
    vmem_growth_mb_per_day=2.0,
    base_rss_mb=10.0,
    rss_per_node_kb=8.0,
    rss_per_job_kb=0.0,
)


class EslurmRM(ResourceManager):
    """The paper's resource manager (distributed structure + FP-Tree).

    Args:
        sim / cluster: as the base engine; the cluster must have been
            built with ``n_satellites >= 1``.
        profile: defaults to the calibrated ESLURM profile.
        estimator: a runtime estimator, ``"auto"`` for the paper's
            framework with deployment defaults, or ``None`` to schedule
            on user estimates (the FP-Tree-only ablation).
        use_fptree: ``False`` degrades satellite relays to plain trees
            (the paper's "ESLURM without FP-Tree" ablation).
        predictor: failure-prediction plugin for the FP-Tree
            (defaults to the monitoring-alert predictor).
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        profile: RMProfile | None = None,
        estimator: t.Any = None,
        use_fptree: bool = True,
        predictor: FailurePredictor | None = None,
        **kwargs: t.Any,
    ) -> None:
        if estimator == "auto":
            # The direct default_rng(seed) derivation, not a named
            # registry stream, is frozen into the golden traces.
            estimator = EslurmEstimator(
                EstimatorConfig(aea_gate=0.0, k_clusters=40),
                rng=np.random.default_rng(sim.rng.seed),
            )
        super().__init__(sim, cluster, profile or ESLURM_PROFILE, estimator=estimator, **kwargs)
        self.sat_pool = SatellitePool(sim, cluster, SATELLITE_PROFILE)
        self.use_fptree = use_fptree
        if use_fptree:
            self.predictor = predictor or MonitorAlertPredictor(cluster)
        else:
            self.predictor = NullPredictor()
        #: one shared engine so FP-Tree construction statistics (the
        #: leaf-placement experiment of Section VII-A) accumulate
        self._fp_engine = FPTreeBroadcast(self.predictor, width=self.profile.tree_width)
        self._takeover_engine = TreeBroadcast(width=self.profile.tree_width)

    @property
    def fptree_stats(self):
        """Construction statistics (trees built, leaf placements)."""
        return self._fp_engine.stats

    @property
    def fp_constructor(self):
        """The shared FP-Tree constructor (chaos invariants hook here)."""
        return self._fp_engine.constructor

    #: each managed satellite costs the master about this much state,
    #: expressed in compute-node equivalents (Table V's slow growth of
    #: master memory/CPU with the satellite count)
    SATELLITE_NODE_EQUIV = 40

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        super().start()
        self.master_acct.set_tracked(
            nodes=self.cluster.n_nodes
            + self.SATELLITE_NODE_EQUIV * len(self.sat_pool.daemons)
        )
        DaemonAccounting.start_samplers(
            [d.acct for d in self.sat_pool.daemons],
            self.sample_interval_s,
            f"{self.rm_name}.satellites.sampler",
        )
        # First heartbeat discovers the satellites (UNKNOWN -> RUNNING).
        self.sat_pool.heartbeat_all()

    # -- broadcast path ---------------------------------------------------------
    def _broadcast(self, kind: MessageKind, targets: t.Sequence[int]) -> BroadcastResult:
        size = DEFAULT_SIZES[kind]
        s = len(targets)
        if s == 0:
            return BroadcastResult("eslurm", 0.0, 0)
        n = max(self.sat_pool.compute_n(s), 1)
        parts = self.sat_pool.split(targets, n)
        p = self.profile
        # Master work: one RPC per satellite task + the list split.
        self.master_acct.charge_cpu(p.rpc_cpu_us / 1e6 * len(parts))
        telemetry.count("rm.master.msgs", len(parts))
        dispatch_overhead = 0.001 * len(parts)  # serialised task sends
        makespans: list[float] = []
        failed: list[int] = []
        timeouts = 0
        # Assignment first (satellite state machine + takeovers keep
        # their sequential event order — no sim time passes in between),
        # then every relay tree evaluates in one batched forest walk.
        results: list[BroadcastResult | None] = [None] * len(parts)
        relays: list[tuple[int, SatelliteDaemon, t.Sequence[int]]] = []
        for i, part in enumerate(parts):
            sat = self.sat_pool.assign_task(len(part))
            if sat is None:
                # No healthy satellite left: master takes the task over.
                res = self._takeover_engine.simulate(
                    self.cluster.master_id, part, size, self.fabric
                )
                self.master_acct.charge_cpu(p.rpc_cpu_us / 1e6 * len(part))
                telemetry.count("rm.master.msgs", min(p.tree_width, len(part)))
                self.master_acct.sockets.pulse(
                    min(p.tree_width, len(part)), max(res.makespan_s, 1e-3)
                )
                results[i] = res
            else:
                # The relay itself cannot fail (liveness was just
                # checked and evaluation advances no sim time), so the
                # BUSY -> RUNNING transition lands here exactly as it
                # did after each sequential relay.
                sat.handle(SatelliteEvent.BT_SUCCESS)
                relays.append((i, sat, part))
        if relays:
            forest = self._fp_engine.simulate_forest(
                [(sat.node_id, part) for _, sat, part in relays], size, self.fabric
            )
            for (i, sat, part), res in zip(relays, forest):
                sat.acct.charge_cpu(p.rpc_cpu_us / 1e6 * len(part))
                sat.acct.sockets.pulse(
                    min(p.tree_width, len(part)), max(res.makespan_s, 1e-3)
                )
                results[i] = res
        for res in results:
            assert res is not None
            makespans.append(res.makespan_s)
            failed.extend(res.failed)
            timeouts += res.n_timeouts
        if makespans:
            self.master_acct.sockets.pulse(len(parts), max(max(makespans), 1e-3))
        # Per-level synchronous acks in the satellite relay trees.
        ack_wait = p.launch_ack_s * max(
            tree_depth_estimate(max(len(part) for part in parts), p.tree_width), 1
        )
        result = BroadcastResult(
            structure="eslurm-fptree" if self.use_fptree else "eslurm-tree",
            makespan_s=dispatch_overhead + ack_wait + max(makespans, default=0.0),
            n_targets=s,
            failed=tuple(failed),
            n_timeouts=timeouts,
        )
        tel = telemetry.active()
        if tel is not None:
            tel.count("rm.broadcasts")
            tel.observe("rm.broadcast.makespan_s", result.makespan_s)
            tel.observe("rm.broadcast.satellite_tasks", len(parts))
            if result.failed:
                tel.count("rm.broadcast.undelivered", len(result.failed))
        return result

    # -- heartbeats -----------------------------------------------------------------
    def _heartbeat_round(self) -> None:
        telemetry.count("rm.heartbeat_rounds")
        p = self.profile
        self.sat_pool.heartbeat_all()
        running = self.sat_pool.running()
        n_sats = max(len(running), 1)
        # Master side: one RPC per satellite, nothing per slave.
        self.master_acct.charge_cpu(p.rpc_cpu_us / 1e6 * n_sats)
        telemetry.count("rm.master.msgs", n_sats)
        self.master_acct.sockets.pulse(n_sats, 1.0)
        # Satellite side: each relays the sweep over its share of nodes,
        # the same charge and fan-out for every one.
        share = self.cluster.n_nodes / n_sats
        accts = [d.acct for d in running]
        DaemonAccounting.charge_cpu_each(accts, p.rpc_cpu_us / 1e6 * share)
        fan_out = min(p.tree_width, int(share) or 1)
        for acct in accts:
            acct.sockets.pulse(fan_out, 1.0)

    # -- reporting ---------------------------------------------------------------------
    def report(self, horizon_s: float | None = None):
        rep = super().report(horizon_s=horizon_s)
        rep.satellites = self.sat_pool.summaries()
        return rep
