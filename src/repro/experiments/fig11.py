"""Fig. 11 driver.

(a) heartbeat broadcast time vs satellite-node count on full-scale
NG-Tianhe — the paper finds 20 satellites optimal for 20K+ nodes,
i.e. one satellite per ~5K slaves;

(b) the runtime-estimation model comparison: user estimates, SVM,
RandomForest, Last-2, IRPA, TRIP, PREP, and ESLURM's framework, scored
by AEA and underestimation rate on an NG-Tianhe-profile trace.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.estimate import (
    EslurmEstimator,
    EstimatorConfig,
    IrpaEstimator,
    Last2Estimator,
    PrepEstimator,
    TripEstimator,
    UserEstimator,
    evaluate_estimator,
    random_forest_estimator,
    svm_estimator,
)
from repro.estimate.metrics import EstimatorReport
from repro.experiments.reporting import render_series, render_table
from repro.fptree.constructor import FPTreeBroadcast
from repro.fptree.predictor import MonitorAlertPredictor
from repro.network.fabric import NetworkFabric
from repro.network.message import DEFAULT_SIZES, MessageKind
from repro.rm.eslurm import SATELLITE_PROFILE
from repro.rm.satellite import SatellitePool
from repro.simkit.core import Simulator
from repro.workload.synthetic import WorkloadConfig, generate_trace

SATELLITE_COUNTS = (5, 10, 20, 30, 40, 50)


def run_fig11a(
    n_nodes: int = 20_480,
    counts: t.Sequence[int] = SATELLITE_COUNTS,
    fail_frac: float = 0.01,
    seed: int = 1,
    n_draws: int = 8,
) -> dict[int, float]:
    """Mean heartbeat broadcast time per satellite count.

    Few satellites leave each relay tree too big; many satellites make
    the master's serial dispatch the bottleneck — the optimum sits in
    between (paper: 20 for 20K+, one per ~5K nodes).
    """
    size = DEFAULT_SIZES[MessageKind.HEARTBEAT]
    out: dict[int, float] = {}
    for n_sats in counts:
        total = 0.0
        for draw in range(n_draws):
            sim = Simulator(seed=seed + draw)
            cluster = ClusterSpec.ng_tianhe(n_nodes=n_nodes, n_satellites=n_sats).build(sim)
            failed = cluster.fail_fraction(fail_frac)
            rng = sim.rng.stream("fig11a.alerts")
            for nid in failed:
                if rng.random() < 0.85:
                    cluster.monitor.raise_alert(nid)
            fabric = NetworkFabric(sim, cluster)
            pool = SatellitePool(sim, cluster, SATELLITE_PROFILE)
            pool.heartbeat_all()
            targets = cluster.compute_ids()
            parts = pool.split(targets, n_sats)
            predictor = MonitorAlertPredictor(cluster)
            makespans = []
            for daemon, part in zip(pool.daemons, parts):
                engine = FPTreeBroadcast(predictor, width=32)
                makespans.append(
                    engine.simulate(daemon.node_id, part, size, fabric).makespan_s
                )
            # Master dispatches satellite tasks serially; each task also
            # carries its sub-list (the dominant serial term at high N).
            dispatch = sum(0.004 + len(p) * 2e-6 for p in parts)
            total += dispatch + max(makespans)
        out[n_sats] = total / n_draws
    return out


@dataclass
class Fig11bResult:
    reports: dict[str, EstimatorReport] = field(default_factory=dict)


def run_fig11b(
    n_jobs: int = 3000, seed: int = 2, warmup: int = 200, fast: bool = False
) -> Fig11bResult:
    """Score every estimator on the same NG-Tianhe-profile trace.

    ``fast`` skips the two slowest baselines (RF and IRPA refits) for
    quick benchmark runs.
    """
    jobs = generate_trace(
        WorkloadConfig.ng_tianhe(jobs_per_day=1000.0), n_jobs, seed=seed
    )
    estimators: list[t.Any] = [
        UserEstimator(),
        Last2Estimator(),
        svm_estimator(),
        TripEstimator(),
        PrepEstimator(),
        # K tracks the number of distinct applications in the window;
        # the paper's elbow found 15 on its (more repetitive) trace.
        EslurmEstimator(
            EstimatorConfig(aea_gate=0.0, k_clusters=150, q_sigma=1.0),
            rng=np.random.default_rng(seed),
        ),
    ]
    if not fast:
        estimators.insert(3, random_forest_estimator())
        estimators.insert(4, IrpaEstimator())
    result = Fig11bResult()
    for est in estimators:
        rep = evaluate_estimator(est, jobs, warmup=warmup)
        result.reports[rep.name] = rep
    return result


def render_fig11(a: dict[int, float], b: Fig11bResult) -> str:
    blocks = [
        render_series(
            "n_satellites",
            list(a.keys()),
            {"heartbeat_broadcast_s": list(a.values())},
            title="Fig 11a: broadcast time vs satellite count (20K+ nodes)",
        ),
        f"  optimum: {min(a, key=a.get)} satellites (paper: 20, i.e. 1 per ~5K nodes)",
        render_table(
            ["model", "AEA", "UR", "MAE_s"],
            [
                [name, r.aea, r.underestimate_rate, r.mean_abs_error_s]
                for name, r in b.reports.items()
            ],
            title="Fig 11b: runtime estimation models (paper: ESLURM 84% AEA, ~10% UR)",
            float_fmt="{:.3f}",
        ),
    ]
    return "\n".join(blocks)
