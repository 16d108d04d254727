"""The relation framework and the registry."""

import pytest

from repro.oracle.relations import Relation, RelationResult, relations_table


class TestFramework:
    def test_result_line_shows_status_layer_and_name(self):
        ok_line = RelationResult("x", True, "fine", layer="metamorphic").line()
        assert ok_line.startswith("[ok  ]") and "metamorphic" in ok_line and "x" in ok_line
        assert RelationResult("x", False, "broke").line().startswith("[FAIL]")

    def test_base_relation_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Relation().run()

    def test_registry_names_unique_and_paper_mapped(self):
        relations = relations_table()
        names = [r.name for r in relations]
        assert len(names) == len(set(names))
        assert len(relations) >= 8  # 3 differential + 5 metamorphic
        for relation in relations:
            assert relation.layer in ("differential", "metamorphic")
            assert relation.section != "-", f"{relation.name} lacks a paper section"
            assert relation.claim != "-", f"{relation.name} lacks a claim"


class TestSharedInvariantRegistry:
    def test_chaos_package_surface_unchanged(self):
        from repro.chaos import ChaosContext, InvariantRegistry, default_invariants
        from repro.oracle import invariants as oracle_inv

        assert ChaosContext is oracle_inv.ChaosContext
        assert InvariantRegistry is oracle_inv.InvariantRegistry
        names = {type(i).__name__ for i in default_invariants()}
        assert "SatelliteLegality" in names and "NodeConservation" in names
