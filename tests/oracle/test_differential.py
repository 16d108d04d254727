"""Differential relations: hold on the real tree, fail when perturbed.

Every relation is exercised in both directions — the paper-shaped
ordering must hold on the code as written, and a deliberately broken
pairing must be *rejected*.  An oracle that cannot fail verifies
nothing.
"""

import pytest

from repro.fptree.predictor import NullPredictor
from repro.oracle.differential import (
    DIFFERENTIAL_RELATIONS,
    EstimatorGateRelation,
    FPTreeFailureBoundRelation,
    MalleableThroughputRelation,
    MasterOffloadRelation,
    TopologyPlacementRelation,
)


class TestRelationsHold:
    def test_master_offload(self, oracle_seed):
        result = MasterOffloadRelation().run(seed=oracle_seed)
        assert result.ok, result.detail

    def test_fptree_failure_bound(self, oracle_seed):
        result = FPTreeFailureBoundRelation().run(seed=oracle_seed)
        assert result.ok, result.detail

    def test_estimator_aea_gate(self, oracle_seed):
        result = EstimatorGateRelation().run(seed=oracle_seed)
        assert result.ok, result.detail

    def test_malleable_throughput(self, oracle_seed):
        result = MalleableThroughputRelation().run(seed=oracle_seed)
        assert result.ok, result.detail

    def test_topology_placement(self, oracle_seed):
        result = TopologyPlacementRelation().run(seed=oracle_seed)
        assert result.ok, result.detail

    def test_registry_is_the_five_relations(self):
        assert [type(r) for r in DIFFERENTIAL_RELATIONS] == [
            MasterOffloadRelation,
            FPTreeFailureBoundRelation,
            EstimatorGateRelation,
            MalleableThroughputRelation,
            TopologyPlacementRelation,
        ]


class _SwappedArms(MasterOffloadRelation):
    """Runs slurm where eslurm should be — the ordering must now fail."""

    def _arm(self, rm, seed):
        return super()._arm("eslurm" if rm == "slurm" else "slurm", seed)




class TestPerturbationsAreCaught:
    def test_swapped_arms_fail_master_offload(self):
        result = _SwappedArms().run(seed=0)
        assert not result.ok
        assert "!<" in result.detail

    def test_null_predictor_fails_fptree_bound(self, monkeypatch):
        # With no prediction the "FP" tree degenerates to the plain tree,
        # so the strict ordering against the plain tree must be rejected.
        monkeypatch.setattr(
            "repro.oracle.differential.OraclePredictor", lambda cluster: NullPredictor()
        )
        result = FPTreeFailureBoundRelation().run(seed=0)
        assert not result.ok

    def test_impossible_tolerance_fails_estimator_gate(self):
        # Demanding the gated error be ~0x of the user error is unsatisfiable;
        # the relation must report the breach rather than clamp it away.
        relation = EstimatorGateRelation()
        relation.TOLERANCE = 1e-6
        result = relation.run(seed=0)
        assert not result.ok

    def test_crippled_elastic_arm_fails_throughput(self):
        # Give the malleable arm a quarter of the horizon: it must now
        # complete fewer jobs, and the ordering has to catch it.
        class Crippled(MalleableThroughputRelation):
            def _arm(self, seed, malleable):
                if not malleable:
                    return super()._arm(seed, malleable)
                saved = self.horizon_s
                self.horizon_s = saved / 4
                try:
                    return super()._arm(seed, malleable)
                finally:
                    self.horizon_s = saved

        result = Crippled().run(seed=0)
        assert not result.ok
        assert "fewer jobs" in result.detail

    def test_spread_placement_fails_fragmentation(self, monkeypatch):
        # A "topology" policy that strides across the free list scatters
        # allocations and drops the first-fit floor: it must score worse
        # than first-fit on some pool state, which the relation rejects.
        import repro.oracle.differential as diff

        class Spread(diff.TopologyAwarePlacement):
            def _compact_pick(self, candidates, k):
                step = max(1, len(candidates) // k)
                pick = candidates[::step][:k]
                if len(pick) < k:
                    pick = candidates[:k]
                return tuple(pick)

        monkeypatch.setattr(diff, "TopologyAwarePlacement", Spread)
        result = TopologyPlacementRelation().run(seed=0)
        assert not result.ok
        assert "scored worse" in result.detail
