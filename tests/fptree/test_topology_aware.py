"""FP-Tree fine-tuning of a topology-aware base order (Section IV-E:
build topology-aware first, then demote alert nodes)."""

from repro.cluster.topology import Topology
from repro.fptree import StaticSetPredictor, FPTreeConstructor, build_tree

TOPO = Topology(nodes_per_board=4, boards_per_chassis=4, chassis_per_rack=2)


def topology_order(node_ids):
    """Nodes grouped by rack, then chassis, then board, then id."""
    return sorted(node_ids, key=lambda nid: (*TOPO.coordinates(nid), nid))


class TestFineTuning:
    @staticmethod
    def rack_transitions(order):
        racks = [TOPO.rack_of(nid) for nid in order]
        return sum(1 for a, b in zip(racks, racks[1:]) if a != b)

    def test_fp_rearrange_preserves_topology_runs_mostly(self):
        """With few predicted failures the FP pass barely perturbs the
        topology-aware order — the paper's stated compatibility.  We
        measure rack-locality: the number of rack transitions along the
        list grows only by a bounded amount per predicted node."""
        ids = topology_order(range(128))
        base = self.rack_transitions(ids)
        predicted = {7, 70}
        ctor = FPTreeConstructor(StaticSetPredictor(predicted), width=4)
        ordered = ctor.construct(root=1000, targets=ids)
        tuned = self.rack_transitions(ordered)
        assert tuned <= base + 4 * len(predicted)

    def test_predicted_still_on_leaves_after_fine_tune(self):
        ids = topology_order(range(128))
        predicted = {3, 64, 100}
        ctor = FPTreeConstructor(StaticSetPredictor(predicted), width=4)
        ordered = ctor.construct(root=1000, targets=ids)
        tree = build_tree([1000, *ordered], width=4)
        assert predicted <= set(tree.leaf_ids())
