"""Ablations over the FP-Tree's design choices.

Two sweeps the paper discusses but does not plot:

* **tree width** — prior work tunes width/depth (Section IV's related
  work); the failure-robustness benefit of the FP-Tree must hold across
  widths, not just at the deployed fan-out;
* **predictor quality** — the over-prediction principle says wrong
  predictions are harmless; we sweep from no predictor through the
  alert-driven one to a perfect oracle and check the monotone ordering.
"""

import pytest

from benchmarks.conftest import FULL
from repro.cluster import ClusterSpec
from repro.fptree import FPTreeBroadcast, MonitorAlertPredictor, NullPredictor, OraclePredictor
from repro.network import NetworkFabric, TreeBroadcast
from repro.simkit import Simulator


def make_cluster(n_nodes, fail_frac, recall, seed=3):
    sim = Simulator(seed=seed)
    cluster = ClusterSpec(n_nodes=n_nodes, n_satellites=2).build(sim)
    failed = cluster.fail_fraction(fail_frac)
    rng = sim.rng.stream("ablation.alerts")
    for nid in failed:
        if rng.random() < recall:
            cluster.monitor.raise_alert(nid)
    return cluster


def test_width_ablation(once):
    """The FP-Tree beats the plain tree at every width."""
    n_nodes = 4096 if FULL else 1024

    def sweep():
        rows = {}
        for width in (2, 4, 8, 16, 32, 64):
            cluster = make_cluster(n_nodes, fail_frac=0.1, recall=0.85)
            fabric = NetworkFabric(cluster.sim, cluster)
            targets = cluster.compute_ids()
            plain = TreeBroadcast(width=width).simulate(
                cluster.master_id, targets, 8192, fabric
            )
            fp = FPTreeBroadcast(MonitorAlertPredictor(cluster), width=width).simulate(
                cluster.master_id, targets, 8192, fabric
            )
            rows[width] = (plain.makespan_s, fp.makespan_s)
        return rows

    rows = once(sweep)
    print()
    from repro.experiments.reporting import render_table

    print(
        render_table(
            ["width", "plain tree (s)", "fp-tree (s)"],
            [[w, p, f] for w, (p, f) in rows.items()],
            title=f"width ablation ({n_nodes} nodes, 10% failed)",
            float_fmt="{:.3f}",
        )
    )
    for width, (plain, fp) in rows.items():
        assert fp <= plain + 1e-9, f"width {width}"


def test_predictor_quality_ablation(once):
    """null <= alerts <= oracle in failure robustness (never worse)."""
    n_nodes = 4096 if FULL else 1024

    def sweep():
        out = {}
        for label, factory in (
            ("null", lambda c: NullPredictor()),
            ("alerts(r=0.5)", lambda c: MonitorAlertPredictor(c)),
            ("alerts(r=0.85)", lambda c: MonitorAlertPredictor(c)),
            ("oracle", lambda c: OraclePredictor(c)),
        ):
            recall = 0.5 if "0.5" in label else 0.85
            cluster = make_cluster(n_nodes, fail_frac=0.15, recall=recall)
            fabric = NetworkFabric(cluster.sim, cluster)
            engine = FPTreeBroadcast(factory(cluster), width=16)
            res = engine.simulate(
                cluster.master_id, cluster.compute_ids(), 8192, fabric
            )
            out[label] = res.makespan_s
        return out

    out = once(sweep)
    print()
    for label, t in out.items():
        print(f"  {label:<16} {t:8.3f}s")
    # better prediction never hurts (the over-prediction principle)
    assert out["oracle"] <= out["alerts(r=0.85)"] + 1e-9
    assert out["alerts(r=0.85)"] <= out["null"] + 1e-9
    assert out["alerts(r=0.5)"] <= out["null"] + 1e-9
