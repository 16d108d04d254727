"""The relation framework, the registry, and the bench-payload judge."""

import pytest

from repro.oracle.relations import (
    MASTER_LOAD_NODE_THRESHOLD,
    Relation,
    RelationResult,
    check_bench_payloads,
    relations_table,
)


def _bench_payload(rm, seed=0, n_nodes=1024, cpu=10.0, sockets=100.0, msgs=1000.0, events=500):
    return {
        "name": f"{rm}-{n_nodes}",
        "seed": seed,
        "scenario": {"rm": rm, "n_nodes": n_nodes, "n_satellites": 2, "failures": False},
        "events": events,
        "sim_time_s": 14400.0,
        "counters": {"rm.master.msgs": msgs},
        "master": {"cpu_time_min": cpu, "sockets_peak": sockets},
    }


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


class TestBenchCheck:
    def test_healthy_pair_passes(self):
        results = check_bench_payloads(
            [
                _bench_payload("slurm", cpu=10.0, sockets=300.0, msgs=9000.0),
                _bench_payload("eslurm", cpu=2.0, sockets=5.0, msgs=900.0),
            ]
        )
        assert results and all(r.ok for r in results)
        assert {r.layer for r in results} == {"bench"}

    def test_tampered_eslurm_master_load_fails(self):
        results = check_bench_payloads(
            [
                _bench_payload("slurm", cpu=10.0),
                _bench_payload("eslurm", cpu=11.0),  # master got *more* expensive
            ]
        )
        failing = [r for r in results if not r.ok]
        assert any(r.relation == "master-load/cpu_time_min" for r in failing)

    def test_dead_simulation_fails_liveness(self):
        payload = _bench_payload("slurm", events=0)
        results = check_bench_payloads([payload])
        assert [r for r in results if r.relation == "bench-liveness"][0].ok is False

    def test_below_threshold_pairs_are_not_judged(self):
        results = check_bench_payloads(
            [
                _bench_payload("slurm", n_nodes=MASTER_LOAD_NODE_THRESHOLD // 2, cpu=1.0),
                _bench_payload("eslurm", n_nodes=MASTER_LOAD_NODE_THRESHOLD // 2, cpu=9.0),
            ]
        )
        assert all(r.relation == "bench-liveness" for r in results)

    def test_unpaired_payloads_only_get_liveness(self):
        results = check_bench_payloads([_bench_payload("eslurm")])
        assert all(r.relation == "bench-liveness" for r in results)

    def test_missing_msgs_counter_skips_that_comparison(self):
        slurm = _bench_payload("slurm", cpu=10.0)
        eslurm = _bench_payload("eslurm", cpu=2.0)
        del slurm["counters"]["rm.master.msgs"]
        relations = {r.relation for r in check_bench_payloads([slurm, eslurm])}
        assert "master-load/cpu_time_min" in relations
        assert "master-load/rm.master.msgs" not in relations
