"""FP-Tree node-placement experiment (Section VII-A text).

The paper deploys ESLURM on 4K nodes for ten days, counts the failed
nodes encountered while constructing FP-Trees, and reports that 81.7 %
of them had been placed on leaves — including through 28 small failure
events and one >600-node maintenance event on day six.

This driver replays that protocol: stochastic failures plus the day-six
maintenance event, FP-Trees constructed on a broadcast-like cadence,
and for every construction the *actually failed* nodes' positions
checked against the tree's leaf set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.failures import FailureModel
from repro.cluster.monitoring import MonitoringConfig
from repro.cluster.spec import ClusterSpec
from repro.fptree.constructor import FPTreeConstructor
from repro.fptree.predictor import MonitorAlertPredictor
from repro.fptree.tree import leaf_positions
from repro.simkit.core import Simulator

DAY = 86_400.0


@dataclass
class PlacementResult:
    trees_built: int
    failed_encounters: int
    failed_on_leaves: int
    failure_events: int
    single_node_failures: int

    @property
    def leaf_placement_ratio(self) -> float:
        """Paper: 81.7 %."""
        if self.failed_encounters == 0:
            return 1.0
        return self.failed_on_leaves / self.failed_encounters


def run_placement(
    n_nodes: int = 4096,
    days: float = 10.0,
    constructions_per_day: int = 60,
    width: int = 4,
    recall: float = 0.85,
    seed: int = 1,
) -> PlacementResult:
    """Replay the ten-day placement experiment.

    ``constructions_per_day`` scales the paper's 3828 trees/day down to
    keep runs quick; the placement *ratio* is insensitive to it.  The
    default width is narrow: in a width-32 tree ~97 % of positions are
    leaves anyway, so the leaf-placement metric is only informative for
    narrow trees (the regime where a failed inner node hurts most).
    Failed nodes whose alert has expired (long repairs, short alert TTL)
    land on leaves only by chance — that gap is why the paper reports
    81.7 % rather than ~100 %.
    """
    sim = Simulator(seed=seed)
    model = FailureModel(
        mtbf_node_hours=6000.0,  # a few point failures per day at 4K
        repair_hours=12.0,
        burst_per_day=0.3,
        burst_size_mean=8.0,
    )
    spec = ClusterSpec(
        n_nodes=n_nodes,
        n_satellites=2,
        failure_model=model,
        monitoring=MonitoringConfig(recall=recall, alert_ttl_hours=8.0),
    )
    cluster = spec.build(sim)
    cluster.failures.start()
    cluster.monitor.start()
    # Day six: the paper's >600-node hardware-replacement event
    # (scaled to ~15% of the machine when running smaller clusters).
    maint = min(640, max(n_nodes // 6, 8))
    start = n_nodes // 4
    if days >= 6:
        cluster.failures.schedule_maintenance(
            at=6 * DAY, node_ids=range(start, start + maint), duration=8 * 3600.0
        )
    constructor = FPTreeConstructor(MonitorAlertPredictor(cluster), width=width)
    encounters = 0
    on_leaves = 0
    trees = 0
    interval = DAY / constructions_per_day

    def build_one() -> None:
        nonlocal encounters, on_leaves, trees
        targets = cluster.compute_ids()
        ordered = constructor.construct(cluster.master_id, targets)
        down = cluster.down_ids()
        if down:
            leaves = set(leaf_positions(len(ordered) + 1, width))
            # position p in the full nodelist corresponds to ordered[p-1]
            for pos, nid in enumerate(ordered, start=1):
                if nid in down:
                    encounters += 1
                    if pos in leaves:
                        on_leaves += 1
        trees += 1
        builder.arm(interval)

    builder = sim.timer(build_one, label="placement.builder")
    builder.arm(interval)
    sim.run(until=days * DAY)
    return PlacementResult(
        trees_built=trees,
        failed_encounters=encounters,
        failed_on_leaves=on_leaves,
        failure_events=len(cluster.failures.events),
        single_node_failures=sum(
            len(ev.node_ids) for ev in cluster.failures.events if ev.kind == "point"
        ),
    )


def render_placement(r: PlacementResult) -> str:
    return (
        f"FP-Tree placement over the deployment window:\n"
        f"  trees built: {r.trees_built}\n"
        f"  failure events: {r.failure_events} "
        f"({r.single_node_failures} single-node failures)\n"
        f"  failed-node encounters during construction: {r.failed_encounters}\n"
        f"  placed on leaves: {r.failed_on_leaves} "
        f"({r.leaf_placement_ratio:.1%}; paper: 81.7%)"
    )
