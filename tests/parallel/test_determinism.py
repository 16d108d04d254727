"""Parallel-vs-serial byte-identity: the sweep engine's acceptance bar.

Every surface must produce byte-identical output at ``-j 1`` and
``-j 4`` — same chaos report rendering and payload, same verify
payloads — because each cell is a fully seeded, self-contained run and
the merge is a pure function of the task list.
"""

import json

from repro.chaos import run_campaign
from repro.oracle import run_verify, run_verify_sweep


class TestChaosDeterminism:
    def test_campaign_grid_identical_j1_vs_j4(self):
        serial = run_campaign(["flapping-node"], seeds=(0, 1), jobs=1)
        pooled = run_campaign(["flapping-node"], seeds=(0, 1), jobs=4)
        assert serial.ok and pooled.ok
        assert pooled.to_text() == serial.to_text()
        assert json.dumps(pooled.to_payload(), sort_keys=True) == json.dumps(
            serial.to_payload(), sort_keys=True
        )
        assert pooled.merged_invariant_counts() == serial.merged_invariant_counts()

    def test_malleable_scenarios_identical_j1_vs_j4(self):
        # The resize passes and placement policy run inside the worker;
        # the grid must stay byte-identical when those paths are hot.
        grid = ["malleable-shrink-storm", "topology-storm"]
        serial = run_campaign(grid, seeds=(0, 1), jobs=1)
        pooled = run_campaign(grid, seeds=(0, 1), jobs=4)
        assert serial.ok and pooled.ok
        assert pooled.to_text() == serial.to_text()
        assert json.dumps(pooled.to_payload(), sort_keys=True) == json.dumps(
            serial.to_payload(), sort_keys=True
        )
        resizes = sum(
            cell.report["jobs_grown"] + cell.report["jobs_shrunk"]
            for cell in pooled.cells
        )
        assert resizes > 0  # the sweep actually exercised the elastic path


class TestVerifyDeterminism:
    def test_single_seed_sweep_payload_equals_serial_run(self):
        serial = run_verify(seed=0, layers=("metamorphic",))
        sweep = run_verify_sweep([0], layers=("metamorphic",), jobs=1)
        assert sweep.reports[0].to_payload() == serial.to_payload()

    def test_seed_sweep_identical_j1_vs_j2(self):
        serial = run_verify_sweep([0, 1], layers=("metamorphic",), jobs=1)
        pooled = run_verify_sweep([0, 1], layers=("metamorphic",), jobs=2)
        assert serial.ok and pooled.ok
        assert json.dumps(pooled.to_payload(), sort_keys=True) == json.dumps(
            serial.to_payload(), sort_keys=True
        )

    def test_relation_filtered_sweep_identical_j1_vs_j4(self):
        # The acceptance sweep for the elastic/placement relations: the
        # filter must survive the worker round-trip and stay byte-stable.
        relations = ["malleable-throughput", "topology-fragmentation"]
        serial = run_verify_sweep([0, 1], relations=relations, jobs=1)
        pooled = run_verify_sweep([0, 1], relations=relations, jobs=4)
        assert serial.ok and pooled.ok
        assert json.dumps(pooled.to_payload(), sort_keys=True) == json.dumps(
            serial.to_payload(), sort_keys=True
        )
        for report in pooled.reports:
            assert sorted(r.relation for r in report.results) == sorted(relations)
