"""ESLURM: the hierarchical RM with satellites, FP-Tree, and estimation.

Differences from the centralized engine, all per Section III–V:

* **broadcasts** never fan out from the master: the target list is
  split across N satellites (Eq. 1, round-robin over RUNNING ones);
  each satellite builds an FP-Tree over its sub-list and relays.  The
  master only pays for N satellite RPCs and N sockets;
* **satellite failover**: a satellite dying mid-task moves the task to
  the next satellite (at most twice), then the master takes over with
  a plain fan-out tree;
* **heartbeats** follow the same satellite path; the sweep is rebuilt
  only when liveness, alerts or the satellite count changed.  A
  rebuild keeps a per-share record across rounds (each satellite's
  slice of the compute ids, the predicted and down ids inside it, and
  what its FP-Tree relay produced) and re-derives only the shares whose
  own predicted or down ids changed: failures and alerts are rare and
  local, heartbeats are not;
* **job wall limits** come from the runtime-estimation framework when
  one is attached (``estimator="auto"`` builds the paper's default).
"""

from __future__ import annotations

import typing as t
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.cluster.spec import Cluster
from repro.estimate.framework import EslurmEstimator, EstimatorConfig
from repro.fptree.constructor import FPTreeBroadcast
from repro.fptree.predictor import FailurePredictor, MonitorAlertPredictor, NullPredictor
from repro.network.broadcast import BroadcastResult
from repro.network.message import DEFAULT_SIZES, MessageKind
from repro.network.structures import TreeBroadcast
from repro.rm.base import ResourceManager
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


@dataclass
class _HeartbeatShare:
    """One satellite's slice ``[lo, hi)`` of the compute ids in the sweep.

    ``predicted`` and ``down`` are the ids inside the slice that its
    last derivation saw (``None``: not derived yet); ``on_leaves`` and
    ``makespan_s`` are what that FP-Tree relay produced.  The relay is
    a pure function of these inputs, so an unchanged share replays them.
    """

    root: int
    lo: int
    hi: int
    predicted: frozenset[int] | None = None
    down: frozenset[int] = frozenset()
    on_leaves: int = 0
    makespan_s: float = 0.0


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
            # The direct default_rng(seed) derivation is frozen into the
            # golden traces; adopt() makes the stream visible to snapshot
            # getstate/setstate without changing a single draw.
            estimator = EslurmEstimator(
                EstimatorConfig(aea_gate=0.0, k_clusters=40),
                rng=sim.rng.adopt(
                    "eslurm.estimator", np.random.default_rng(sim.rng.seed)
                ),
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
        self._hb_cache_key: tuple[int, int, int] | None = None
        self._hb_cache_makespan = 0.0
        #: the heartbeat share record: the running satellites it was
        #: split for, and one entry per share
        self._hb_roots: list[int] = []
        self._hb_shares: list[_HeartbeatShare] = []
        #: shares a sweep rebuild replayed from the record / derived anew
        self.heartbeat_shares_reused = 0
        self.heartbeat_shares_derived = 0

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
        for d in self.sat_pool.daemons:
            d.acct.start_sampler(self.sample_interval_s)
        # First heartbeat discovers the satellites (UNKNOWN -> RUNNING).
        self.sat_pool.heartbeat_all()

    # -- broadcast path ---------------------------------------------------------
    def _broadcast(self, kind: MessageKind, targets: t.Sequence[int]) -> BroadcastResult:
        size = DEFAULT_SIZES[kind]
        s = len(targets)
        if s == 0:
            return BroadcastResult("eslurm", 0.0, 0)
        n = max(self.sat_pool.compute_n(s), 1)
        parts = self.sat_pool.split(list(targets), n)
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
        relays: list[tuple[int, SatelliteDaemon, list[int]]] = []
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
        from repro.rm.base import tree_depth_estimate

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

    def _relay(self, sat: SatelliteDaemon, part: list[int], size: int) -> BroadcastResult:
        """One satellite relays ``part`` via its FP-Tree.

        Kept as the single-task form of the forest path in
        :meth:`_broadcast` (chaos/failover tests drive it directly).
        """
        res = self._fp_engine.simulate(sat.node_id, part, size, self.fabric)
        sat.acct.charge_cpu(self.profile.rpc_cpu_us / 1e6 * len(part))
        sat.acct.sockets.pulse(
            min(self.profile.tree_width, len(part)), max(res.makespan_s, 1e-3)
        )
        sat.handle(SatelliteEvent.BT_SUCCESS)
        return res

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
        # Satellite side: each relays the sweep over its share of nodes.
        n = self.cluster.n_nodes
        share = n / n_sats
        for d in running:
            d.acct.charge_cpu(p.rpc_cpu_us / 1e6 * share)
            d.acct.sockets.pulse(min(p.tree_width, int(share) or 1), 1.0)
        # FP-Tree makespan for the sweep: kept until liveness, alerts or
        # the satellite count change.
        key = (self.cluster.version, self.cluster.monitor.alert_count(), n_sats)
        if key != self._hb_cache_key:
            telemetry.count("rm.heartbeat.fptree_rebuilds")
            self._hb_cache_makespan = self._sweep(running)
            self._hb_cache_key = key

    def _sweep(self, running: list[SatelliteDaemon]) -> float:
        """FP-Tree makespan of the sweep, from the share record.

        Only the shares whose own predicted or down ids changed are
        constructed and walked; the rest replay their construction
        statistics and makespan.  Jitter (RNG per transfer), an active
        telemetry session (every walk's metrics are recorded) and
        construct observers (every construction is audited) re-derive
        every share.

        Compute ids are dense (``0 .. n-1``), so a share's positions
        are its ids: one machine-wide predictor call and the down set,
        bucketed by share start, give every share's inputs in
        O(alerted + down).
        """
        n = self.cluster.n_nodes
        roots = [d.node_id for d in running]
        if roots != self._hb_roots:
            self._hb_roots = roots
            self._hb_shares = [
                _HeartbeatShare(root, lo, hi)
                for root, (lo, hi) in zip(roots, SatellitePool.split_bounds(n, len(roots)))
            ]
        shares = self._hb_shares
        constructor = self._fp_engine.constructor
        replay = not (
            self.fabric.config.jitter_frac
            or telemetry.active() is not None
            or constructor.construct_observers
        )
        predicted = self._by_share(self.predictor.predict(range(n)))
        down = self._by_share(self.fabric.unreachable_ids())
        stats = constructor.stats
        changed: list[_HeartbeatShare] = []
        tasks: list[tuple[int, list[int]]] = []
        for i, share in enumerate(shares):
            share_predicted = frozenset(predicted.get(i, ()))
            share_down = frozenset(down.get(i, ()))
            if replay and share_predicted == share.predicted and share_down == share.down:
                constructor._record(range(share.lo, share.hi), share_predicted, share.on_leaves)
                continue
            on_leaves = stats.predicted_on_leaves
            targets = self.cluster.compute_ids(share.lo, share.hi)
            tasks.append((share.root, constructor.construct(share.root, targets)))
            share.predicted, share.down = share_predicted, share_down
            share.on_leaves = stats.predicted_on_leaves - on_leaves
            changed.append(share)
        if tasks:
            walked = self._fp_engine.engine.simulate_forest(
                tasks, DEFAULT_SIZES[MessageKind.HEARTBEAT], self.fabric
            )
            for share, res in zip(changed, walked):
                share.makespan_s = res.makespan_s
        self.heartbeat_shares_reused += len(shares) - len(changed)
        self.heartbeat_shares_derived += len(changed)
        return max((share.makespan_s for share in shares), default=0.0)

    def _by_share(self, ids: t.Iterable[int]) -> dict[int, set[int]]:
        """Bucket node ids by the share holding them (others dropped)."""
        shares = self._hb_shares
        starts = [share.lo for share in shares]
        out: dict[int, set[int]] = {}
        for nid in ids:
            i = bisect_right(starts, nid) - 1
            if i >= 0 and nid < shares[i].hi:
                out.setdefault(i, set()).add(nid)
        return out

    # -- reporting ---------------------------------------------------------------------
    def report(self, horizon_s: float | None = None):
        rep = super().report(horizon_s=horizon_s)
        rep.satellites = self.sat_pool.summaries()
        return rep
