"""The perf-benchmark matrix: every scenario, deterministic payloads.

Quick mode runs the 1K-node column; ``REPRO_FULL=1`` runs all twelve
scenarios.  Prints one line per scenario (run with ``-s`` to see it).
"""

from benchmarks.conftest import FULL
from repro.bench import SCENARIOS, run_matrix_sweep


def test_bench_matrix(once):
    names = [n for n, s in SCENARIOS.items() if FULL or s.n_nodes == 1024]
    print()
    sweep = once(run_matrix_sweep, names=names, seed=0, progress=print)
    assert sweep.ok, [f.task_id for f in sweep.failures]
    by_name = {r.scenario.name: r.payload for r in sweep.results}
    for name, payload in by_name.items():
        assert payload["events"] > 0, name
        assert payload["schedule"]["n_completed"] > 0, name
    # the hierarchical RM pushes satellite traffic the centralized one lacks
    assert by_name["eslurm-1024"]["histograms"]["rm.broadcast.satellite_tasks"]["count"] > 0
    assert "rm.broadcast.satellite_tasks" not in by_name["slurm-1024"]["histograms"]
