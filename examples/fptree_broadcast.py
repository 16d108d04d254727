#!/usr/bin/env python
"""FP-Tree vs everything else: broadcasting through a failing machine.

Reproduces the heart of the paper's Section IV/Fig. 8b at example scale:
a 2K-node cluster with a sweep of failure ratios, the monitoring
subsystem raising (imperfect) alerts for the failed nodes, and five
broadcast structures racing a 16 KB job-launch payload.

Run:  python examples/fptree_broadcast.py
"""

from repro.cluster import ClusterSpec
from repro.experiments.reporting import render_series
from repro.fptree import FPTreeBroadcast, MonitorAlertPredictor
from repro.network import (
    NetworkFabric,
    RingBroadcast,
    SharedMemoryBroadcast,
    StarBroadcast,
    TreeBroadcast,
)
from repro.simkit import Simulator

N_NODES = 2048
PAYLOAD = 16_384  # bytes: a job-launch message
RATIOS = (0.0, 0.1, 0.2, 0.3)
ALERT_RECALL = 0.85


def cluster_with_failures(fraction: float, seed: int = 3):
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(n_nodes=N_NODES, n_satellites=2).build(sim)
    failed = cluster.fail_fraction(fraction)
    rng = sim.rng.stream("example.alerts")
    for nid in failed:  # the monitoring stack alerts on most failures
        if rng.random() < ALERT_RECALL:
            cluster.monitor.raise_alert(nid)
    return cluster


def main() -> None:
    curves: dict[str, list[float]] = {}
    for frac in RATIOS:
        cluster = cluster_with_failures(frac)
        fabric = NetworkFabric(cluster.sim, cluster)
        engines = {
            "ring": RingBroadcast(),
            "star": StarBroadcast(concurrency=64),
            "shared-memory": SharedMemoryBroadcast(),
            "tree": TreeBroadcast(width=32),
            "fp-tree": FPTreeBroadcast(MonitorAlertPredictor(cluster), width=32),
        }
        for name, engine in engines.items():
            res = engine.simulate(
                cluster.master_id, cluster.compute_ids(), PAYLOAD, fabric
            )
            curves.setdefault(name, []).append(res.makespan_s)
    print(
        render_series(
            "failure_ratio",
            list(RATIOS),
            curves,
            title=f"Broadcast makespan (s), {N_NODES} nodes, 16KB payload",
        )
    )
    print(
        "\nThe FP-Tree reads the monitoring alerts, demotes the suspect\n"
        "nodes to leaves, and keeps the broadcast fast even with 30% of\n"
        "the machine dark — while the ring pays every timeout serially."
    )


if __name__ == "__main__":
    main()
