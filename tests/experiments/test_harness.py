"""Tests for the experiment harness and reporting."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import build_rm, quick_cluster, render_series, render_table, run_rm_day
from repro.rm import CentralizedRM, EslurmRM


class TestQuickCluster:
    def test_builds_with_simulator(self):
        cluster = quick_cluster(n_nodes=64, seed=3)
        assert cluster.n_nodes == 64
        assert cluster.sim.now == 0.0

    def test_failures_flag(self):
        cluster = quick_cluster(n_nodes=64, failures=True)
        assert cluster.spec.failure_model.enabled
        cluster2 = quick_cluster(n_nodes=64, failures=False)
        assert not cluster2.spec.failure_model.enabled


class TestBuildRm:
    def test_builds_each_rm(self):
        for name in ("slurm", "lsf", "sge", "torque", "openpbs"):
            cluster = quick_cluster(n_nodes=32)
            assert isinstance(build_rm(name, cluster), CentralizedRM)
        cluster = quick_cluster(n_nodes=32)
        assert isinstance(build_rm("eslurm", cluster), EslurmRM)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            build_rm("htcondor", quick_cluster(n_nodes=8))


class TestRunRmDay:
    def test_report_complete(self):
        cluster = quick_cluster(n_nodes=128, seed=2)
        rep = run_rm_day("slurm", cluster, n_jobs=100, seed=2)
        assert rep.rm_name == "slurm"
        assert rep.schedule is not None
        assert rep.schedule.n_jobs > 50
        assert rep.master["cpu_time_min"] > 0
        assert "utilization" in rep.summary()

    def test_eslurm_has_satellites_in_report(self):
        cluster = quick_cluster(n_nodes=128, n_satellites=3, seed=2)
        rep = run_rm_day("eslurm", cluster, n_jobs=50, seed=2)
        assert len(rep.satellites) == 3

    def test_deterministic(self):
        reps = []
        for _ in range(2):
            cluster = quick_cluster(n_nodes=64, seed=9)
            reps.append(run_rm_day("slurm", cluster, n_jobs=60, seed=9))
        assert reps[0].master["cpu_time_min"] == reps[1].master["cpu_time_min"]
        assert reps[0].schedule.avg_wait_s == reps[1].schedule.avg_wait_s


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["xyz", 3.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text and "xyz" in text
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equal width

    def test_render_series(self):
        text = render_series("x", [1, 2], {"y": [0.1, 0.2], "z": [3.0, 4.0]})
        assert "0.100" in text and "z" in text
