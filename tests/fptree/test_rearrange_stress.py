"""FP-Tree rearrangement under a long sequence of alert batches.

The production pattern is many constructions against a drifting alert
set.  Every single rearrangement must stay a permutation of the
targets, keep the implied tree k-ary, honor the predicted-on-leaves
guarantee — and the construction must stay O(n) (Eq. 2): the visit
counter catches an accidentally quadratic walk long before wall time
would.
"""

import numpy as np

from repro.cluster import ClusterSpec
from repro.cluster.monitoring import MonitoringConfig
from repro.fptree.constructor import FPTreeConstructor
from repro.fptree.predictor import MonitorAlertPredictor, StaticSetPredictor
from repro.fptree.tree import VisitCounter, build_tree, count_visits, leaf_positions
from repro.simkit import Simulator

WIDTH = 8
N_TARGETS = 200
N_BATCHES = 30


def assert_sound(targets, ordered, predicted, width):
    """The three structural guarantees of one rearrangement."""
    assert sorted(ordered) == sorted(targets)  # permutation: no node lost
    tree = build_tree([10_000] + list(ordered), width)
    assert sum(1 for _ in tree.iter_nodes()) == len(ordered) + 1
    for vertex in tree.iter_nodes():
        assert len(vertex.children) <= width
    leaf_idx = {p - 1 for p in leaf_positions(len(targets) + 1, width) if p > 0}
    predicted_here = set(predicted) & set(targets)
    on_leaves = sum(
        1 for pos, nid in enumerate(ordered)
        if nid in predicted_here and pos in leaf_idx
    )
    assert on_leaves == min(len(predicted_here), len(leaf_idx))


class TestRepeatedRearrangement:
    def test_thirty_alert_batches_stay_sound(self):
        rng = np.random.default_rng(42)
        predictor = StaticSetPredictor(())
        constructor = FPTreeConstructor(predictor, width=WIDTH)
        targets = list(range(N_TARGETS))
        for _ in range(N_BATCHES):
            predictor.predicted = set(
                rng.choice(N_TARGETS, size=int(rng.integers(0, 40)), replace=False)
            )
            ordered = constructor.construct(root=10_000, targets=targets)
            assert_sound(targets, ordered, predictor.predicted, WIDTH)
        assert constructor.stats.trees_built == N_BATCHES
        assert constructor.stats.nodes_placed == N_BATCHES * N_TARGETS

    def test_live_monitor_alert_stream_stays_sound(self):
        """Same property through the production predictor: alerts arrive
        batch by batch and expire under the constructor's feet."""
        sim = Simulator(seed=1)
        cluster = ClusterSpec(n_nodes=N_TARGETS, n_satellites=1).build(sim)
        config = MonitoringConfig(alert_ttl_hours=0.5)
        cluster.monitor.config = config
        predictor = MonitorAlertPredictor(cluster)
        constructor = FPTreeConstructor(predictor, width=WIDTH)
        rng = np.random.default_rng(7)
        targets = list(range(N_TARGETS))
        for batch in range(N_BATCHES):
            for nid in rng.choice(N_TARGETS, size=5, replace=False):
                cluster.monitor.raise_alert(int(nid))
            predicted = cluster.monitor.predicted_failed(among=targets)
            ordered = constructor.construct(root=10_000, targets=targets)
            assert_sound(targets, ordered, predicted, WIDTH)
            sim.run(until=sim.now + 600.0)  # lets older alerts expire

    def test_construction_visits_stay_linear(self):
        """Eq. 2: one construction walks each position O(1) times."""
        predictor = StaticSetPredictor(range(0, N_TARGETS, 7))
        constructor = FPTreeConstructor(predictor, width=WIDTH)
        targets = list(range(N_TARGETS))
        with count_visits() as counter:
            for _ in range(N_BATCHES):
                constructor.construct(root=10_000, targets=targets)
        bound = 4 * (N_TARGETS + 1) * N_BATCHES
        assert counter.visits <= bound, (counter.visits, bound)

    def test_visits_scale_linearly_not_quadratically(self):
        """Doubling n must roughly double the visit count.

        The predicted set must be non-empty: an empty prediction takes
        the constructor's identity fast path, which walks nothing.
        """

        def visits_for(n):
            constructor = FPTreeConstructor(StaticSetPredictor((3,)), width=WIDTH)
            counter = VisitCounter()
            with count_visits(counter):
                constructor.construct(root=10_000, targets=list(range(n)))
            return counter.visits

        small, large = visits_for(500), visits_for(1000)
        assert small > 0
        assert large < 3 * small, (small, large)
