"""Scaled-down integration tests for the per-figure drivers.

Every driver runs at toy scale; assertions pin the qualitative shapes
the benchmarks check at full scale, so driver regressions are caught
inside the normal test suite.
"""

import pytest

from repro.experiments.fig5 import render_fig5, run_fig5
from repro.experiments.fig8 import render_fig8, run_fig8a, run_fig8b
from repro.experiments.fig9 import render_fig9, run_fig9
from repro.experiments.fig11 import run_fig11a
from repro.experiments.motivation import render_motivation, run_motivation
from repro.experiments.placement import render_placement, run_placement
from repro.experiments.tables import (
    render_table5_table6,
    render_table8,
    run_table5_table6,
    run_table8,
)


class TestFig5:
    def test_shapes(self):
        r = run_fig5(n_jobs=4000, seed=1)
        assert set(r) == {"tianhe2a", "ng-tianhe"}
        for res in r.values():
            assert 0.7 < res.overestimate_frac < 1.0
            assert len(res.interval_corr) == len(res.interval_hours)
        # 4,000 jobs span too few hours for the long-interval buckets:
        # those have no pair, printed as n/a rather than 0.000
        assert [c is None for c in r["tianhe2a"].interval_corr] == [False] * 4 + [True] * 4
        assert [c is None for c in r["ng-tianhe"].interval_corr] == [False] * 7 + [True]
        text = render_fig5(r)
        assert "Fig 5a" in text and text.count("| n/a") == 5


class TestFig8:
    def test_fig8a_reductions(self):
        a = run_fig8a(n_nodes=512, n_draws=4)
        assert a.reduction_vs("slurm", "eslurm", "job_load") > 0.0
        assert a.times["slurm"]["job_load"] > 0

    def test_fig8b_curves(self):
        b = run_fig8b(n_nodes=512, ratios=(0.0, 0.2))
        assert set(b) == {"ring", "star", "shared-memory", "tree", "fp-tree"}
        assert b["ring"][1] > b["ring"][0]
        assert b["fp-tree"][1] < b["tree"][1]
        assert "Fig 8b" in render_fig8(run_fig8a(n_nodes=256, n_draws=2), b, ratios=(0.0, 0.2))


class TestFig9:
    def test_master_ordering(self):
        r = run_fig9(n_nodes=1024, n_jobs=100)
        assert r.master["eslurm"]["vmem_mb"] < r.master["slurm"]["vmem_mb"]
        assert r.master["eslurm"]["cpu_time_min"] < r.master["slurm"]["cpu_time_min"]
        assert len(r.satellites) == 2
        assert "Fig 9" in render_fig9(r)


class TestFig11a:
    def test_interior_optimum(self):
        a = run_fig11a(n_nodes=2048, counts=(1, 2, 4, 8, 16), n_draws=3)
        assert len(a) == 5
        best = min(a, key=a.get)
        assert best not in (1, 16)


class TestTables:
    def test_table5_table6_monotonicity(self):
        r = run_table5_table6(n_nodes=1024, setups=(2, 4, 8), n_jobs=60)
        assert (
            r.satellites[8]["avg_nodes_per_task"] < r.satellites[2]["avg_nodes_per_task"]
        )
        assert "Table V" in render_table5_table6(r)

    def test_table8_alpha_monotone_ur(self):
        r = run_table8(alphas=(1.0, 1.08), n_jobs=800, warmup=100)
        assert r[1.0][1] >= r[1.08][1]  # UR falls with alpha
        assert "Table VIII" in render_table8(r)


class TestPlacement:
    def test_placement_above_chance(self):
        r = run_placement(n_nodes=512, days=4.0, constructions_per_day=12, seed=2)
        assert r.failed_encounters > 0
        # width-4 leaf base rate is ~0.61; prediction must beat it
        assert r.leaf_placement_ratio > 0.61
        assert "placed on leaves" in render_placement(r)


class TestMotivation:
    def test_slurm_worse_than_eslurm(self):
        slurm = run_motivation("slurm", n_nodes=4096, days=0.5)
        eslurm = run_motivation("eslurm", n_nodes=4096, days=0.5)
        assert slurm.vmem_gb_end > eslurm.vmem_gb_end
        assert slurm.peak_sockets > eslurm.peak_sockets
        assert "Sec. II-B" in render_motivation([slurm, eslurm])
