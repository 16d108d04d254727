"""Fig. 8 driver: broadcast-time comparisons on 4K nodes.

(a) job-loading (message 1) and job-termination (message 2) broadcast
times for Slurm's master-rooted tree vs ESLURM without FP-Tree (the
satellite contribution) vs full ESLURM (satellites + FP-Tree), under a
realistic ~2 % failed-node population with monitoring alerts;

(b) broadcast time vs failure ratio for ring / star / shared-memory /
plain tree / FP-Tree.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.spec import Cluster, ClusterSpec
from repro.experiments.reporting import render_series, render_table
from repro.fptree.constructor import FPTreeBroadcast
from repro.fptree.predictor import MonitorAlertPredictor, NullPredictor
from repro.network.fabric import NetworkFabric
from repro.network.message import DEFAULT_SIZES, MessageKind
from repro.network.structures import (
    RingBroadcast,
    SharedMemoryBroadcast,
    StarBroadcast,
    TreeBroadcast,
)
from repro.rm.satellite import SatellitePool
from repro.rm.eslurm import SATELLITE_PROFILE
from repro.simkit.core import Simulator

FAILURE_RATIOS = (0.0, 0.05, 0.1, 0.2, 0.3)
#: serial master CPU per launch target (credential building); the
#: satellite layer's latency win comes from parallelising this.
PER_TARGET_ROOT_S = 4e-4


def _cluster_with_alerts(
    n_nodes: int, n_satellites: int, fail_frac: float, seed: int, recall: float = 0.85
) -> Cluster:
    """Cluster with ``fail_frac`` nodes down and matching alerts raised
    (recall-limited), mimicking the monitoring subsystem's view."""
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(n_nodes=n_nodes, n_satellites=n_satellites).build(sim)
    failed = cluster.fail_fraction(fail_frac)
    rng = sim.rng.stream("fig8.alerts")
    for nid in failed:
        if rng.random() < recall:
            cluster.monitor.raise_alert(nid)
    return cluster


@dataclass
class Fig8aResult:
    """Broadcast times per scheme per message kind (seconds)."""

    times: dict[str, dict[str, float]] = field(default_factory=dict)

    def reduction_vs(self, base: str, scheme: str, message: str) -> float:
        """Fractional time reduction of ``scheme`` vs ``base``."""
        b = self.times[base][message]
        return 1.0 - self.times[scheme][message] / b if b else 0.0


def _satellite_broadcast(
    cluster: Cluster, engine_factory: t.Callable[[], t.Any], size: int
) -> float:
    """Makespan of a satellite-split broadcast (max over sub-trees)."""
    fabric = NetworkFabric(cluster.sim, cluster)
    pool = SatellitePool(cluster.sim, cluster, SATELLITE_PROFILE)
    pool.heartbeat_all()
    targets = cluster.compute_ids()
    n = max(pool.compute_n(len(targets)), 1)
    parts = pool.split(targets, n)
    makespans = []
    for daemon, part in zip(pool.daemons * ((n // len(pool.daemons)) + 1), parts):
        engine = engine_factory()
        res = engine.simulate(daemon.node_id, part, size, fabric)
        makespans.append(res.makespan_s)
    return 0.001 * len(parts) + max(makespans)


def run_fig8a(
    n_nodes: int = 4096, fail_frac: float = 0.01, seed: int = 1, n_draws: int = 12
) -> Fig8aResult:
    """Message 1 (job load) and 2 (job termination) broadcast times.

    The paper reports *averages* over many production broadcasts; we
    average over ``n_draws`` independent failure/alert populations.
    """
    result = Fig8aResult()
    messages = {
        "job_load": DEFAULT_SIZES[MessageKind.JOB_LAUNCH],
        "job_term": DEFAULT_SIZES[MessageKind.JOB_TERMINATE],
    }
    sums: dict[str, dict[str, float]] = {
        s: {m: 0.0 for m in messages} for s in ("slurm", "eslurm-nofp", "eslurm")
    }
    for draw in range(n_draws):
        # Failure ratio itself fluctuates run to run in production.
        frac = fail_frac * (0.25 + 1.5 * (draw / max(n_draws - 1, 1)))
        for scheme in sums:
            for message, size in messages.items():
                cluster = _cluster_with_alerts(n_nodes, 2, frac, seed + draw)
                if scheme == "slurm":
                    fabric = NetworkFabric(cluster.sim, cluster)
                    res = TreeBroadcast(
                        width=32, per_target_root_s=PER_TARGET_ROOT_S
                    ).simulate(cluster.master_id, cluster.compute_ids(), size, fabric)
                    took = res.makespan_s
                elif scheme == "eslurm-nofp":
                    took = _satellite_broadcast(
                        cluster,
                        lambda: TreeBroadcast(width=32, per_target_root_s=PER_TARGET_ROOT_S),
                        size,
                    )
                else:
                    predictor = MonitorAlertPredictor(cluster)
                    took = _satellite_broadcast(
                        cluster,
                        lambda: FPTreeBroadcast(
                            predictor, width=32, per_target_root_s=PER_TARGET_ROOT_S
                        ),
                        size,
                    )
                sums[scheme][message] += took
    result.times = {
        scheme: {m: total / n_draws for m, total in per.items()}
        for scheme, per in sums.items()
    }
    return result


def run_fig8b(
    n_nodes: int = 4096,
    ratios: t.Sequence[float] = FAILURE_RATIOS,
    seed: int = 1,
) -> dict[str, list[float]]:
    """Broadcast time vs failure ratio for the five structures.

    The FP-Tree predictor sees monitoring alerts for the failed nodes
    (recall-limited), exactly as in production.
    """
    size = DEFAULT_SIZES[MessageKind.JOB_LAUNCH]
    curves: dict[str, list[float]] = {
        "ring": [],
        "star": [],
        "shared-memory": [],
        "tree": [],
        "fp-tree": [],
    }
    for frac in ratios:
        cluster = _cluster_with_alerts(n_nodes, 2, frac, seed)
        fabric = NetworkFabric(cluster.sim, cluster)
        root = cluster.master_id
        targets = cluster.compute_ids()
        engines = {
            "ring": RingBroadcast(),
            "star": StarBroadcast(concurrency=64),
            "shared-memory": SharedMemoryBroadcast(),
            "tree": TreeBroadcast(width=32),
            "fp-tree": FPTreeBroadcast(MonitorAlertPredictor(cluster), width=32),
        }
        for name, engine in engines.items():
            curves[name].append(engine.simulate(root, targets, size, fabric).makespan_s)
    return curves


def render_fig8(a: Fig8aResult, b: dict[str, list[float]], ratios=FAILURE_RATIOS) -> str:
    rows = [
        [scheme, times["job_load"], times["job_term"]]
        for scheme, times in a.times.items()
    ]
    blocks = [
        render_table(
            ["scheme", "msg1 job_load (s)", "msg2 job_term (s)"],
            rows,
            title="Fig 8a: average broadcast time (4K nodes, ~2% failed)",
            float_fmt="{:.3f}",
        ),
        f"  eslurm reduces msg1 by {a.reduction_vs('slurm', 'eslurm', 'job_load'):.1%}, "
        f"msg2 by {a.reduction_vs('slurm', 'eslurm', 'job_term'):.1%} "
        f"(paper: 63.7% / 73.6%)",
        f"  FP-Tree alone reduces msg1 by "
        f"{a.reduction_vs('eslurm-nofp', 'eslurm', 'job_load'):.1%}, msg2 by "
        f"{a.reduction_vs('eslurm-nofp', 'eslurm', 'job_term'):.1%} "
        f"(paper: 36.3% / 54.9%)",
        render_series(
            "failure_ratio",
            list(ratios),
            b,
            title="Fig 8b: broadcast time (s) vs failure ratio",
        ),
    ]
    return "\n".join(blocks)
