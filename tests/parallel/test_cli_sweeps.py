"""Sweep surfaces end to end: CLI exit codes, crash surfacing, sweep file.

Poisoning uses ``jobs=1`` (the inline path resolves handlers in-process,
so a monkeypatched ``run_bench``/``run_scenario`` is visible) or raw
``Task`` cells with bad specs (which poison real workers).  Either way
the contract is the same: only the poisoned cell fails, the rest of the
sweep completes, and the failure surfaces in the report and exit code.
"""

import json

import pytest

from repro.bench import SWEEP_PATH, run_matrix_sweep, run_sweep_baseline, sweep_digest
from repro.bench.sweep import SWEEP_SCHEMA, render_sweep
from repro.chaos import campaign_cell_id, run_campaign
from repro.cli import main
from repro.parallel import Task, run_tasks


def poison_bench(monkeypatch, bad="eslurm-1024"):
    """Make one scenario's ``run_bench`` raise (inline path only)."""
    import repro.bench.runner as runner

    real = runner.run_bench

    def stub(name, seed=0):
        if getattr(name, "name", name) == bad:
            raise RuntimeError("poisoned bench cell")
        return real(name, seed=seed)

    monkeypatch.setattr(runner, "run_bench", stub)


class TestBenchCrashContainment:
    def test_poisoned_cell_contained_rest_completes(self, monkeypatch):
        poison_bench(monkeypatch)
        sweep = run_matrix_sweep(["slurm-1024", "eslurm-1024"], jobs=1)
        assert not sweep.ok
        assert [r.scenario.name for r in sweep.results] == ["slurm-1024"]
        (failure,) = sweep.failures
        assert failure.task_id == "eslurm-1024"
        assert failure.attempts == 2  # retried once before finalising
        assert "poisoned bench cell" in failure.error

    def test_cli_exit_code_and_stderr(self, monkeypatch, capsys, tmp_path):
        poison_bench(monkeypatch)
        path = tmp_path / "BENCH_sweep.json"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "sweep", "slurm-1024", "eslurm-1024",
                  "--jobs-levels", "1", "--out", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "slurm-1024" in captured.out  # the healthy cell still ran
        assert "eslurm-1024" in captured.out and "FAILED after 2 attempt(s)" in captured.out
        assert "failed cells: ['eslurm-1024']" in captured.err
        assert "Traceback" not in captured.err
        assert not path.exists()

    def test_poisoned_spec_contained_in_real_workers(self):
        # Bypass run_matrix_sweep's fail-fast to poison an actual worker.
        tasks = [
            Task(id="good", kind="bench", spec={"scenario": "slurm-1024", "seed": 0}),
            Task(id="bad", kind="bench", spec={"scenario": "no-such-scenario", "seed": 0}),
        ]
        results = run_tasks(tasks, jobs=2)
        by_id = {r.task_id: r for r in results}
        assert by_id["good"].ok
        assert not by_id["bad"].ok
        assert "no-such-scenario" in by_id["bad"].error


class TestChaosCrashContainment:
    def poison(self, monkeypatch, bad="failure-storm"):
        import repro.chaos.campaign as campaign

        real = campaign.run_scenario

        def stub(name, seed=0, **kwargs):
            if getattr(name, "name", name) == bad:
                raise RuntimeError("poisoned chaos cell")
            return real(name, seed=seed, **kwargs)

        monkeypatch.setattr(campaign, "run_scenario", stub)

    def test_poisoned_cell_surfaces_in_summary(self, monkeypatch):
        self.poison(monkeypatch)
        outcome = run_campaign(["flapping-node", "failure-storm"], jobs=1)
        assert not outcome.ok
        assert [c.scenario for c in outcome.cells] == ["flapping-node"]
        (failure,) = outcome.failures
        assert failure.task_id == campaign_cell_id("failure-storm", 0)
        summary = outcome.summary_text()
        assert "1 crashed cell(s)" in summary
        assert "CRASHED failure-storm@s0" in summary

    def test_cli_exit_code(self, monkeypatch, capsys):
        self.poison(monkeypatch)
        rc = main(["chaos", "run", "flapping-node", "failure-storm"])
        assert rc == 1
        assert "CRASHED failure-storm@s0" in capsys.readouterr().out


class TestCampaignCli:
    def test_grid_exits_zero_and_renders_summary(self, capsys):
        rc = main(["chaos", "run", "flapping-node", "--seeds", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign: 2 run(s), 0 violation(s), 0 crashed cell(s)" in out

    def test_json_payload_shape(self, capsys):
        rc = main(["chaos", "run", "flapping-node", "--seeds", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["n_cells"] == 2
        assert len(payload["reports"]) == 2
        assert payload["invariant_counts"]

    def test_shrink_rejected_on_grids(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "run", "flapping-node", "--seeds", "2", "--shrink"])


class TestVerifySweepCli:
    def test_seed_sweep_exits_zero(self, capsys):
        rc = main(["verify", "--layer", "metamorphic", "--seeds", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verify sweep: OK" in out and "over 2 seed(s)" in out

    def test_update_golden_rejected_in_sweeps(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--seeds", "2", "--update-golden"])

    def test_json_payload_has_per_seed_reports(self, capsys):
        rc = main(["verify", "--layer", "metamorphic", "--seeds", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert [r["seed"] for r in payload["reports"]] == [0, 1]


class TestSweepFile:
    def test_sweep_verb_writes_valid_file(self, tmp_path, capsys):
        path = tmp_path / "BENCH_sweep.json"
        rc = main(
            ["bench", "sweep", "slurm-1024", "eslurm-1024",
             "--jobs-levels", "1", "--out", str(path)]
        )
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == SWEEP_SCHEMA
        assert payload["scenarios"] == ["slurm-1024", "eslurm-1024"]
        # deterministic fields only: no host wall time in the file
        assert set(payload["runs"]["1"]) == {"digest", "events_total"}
        assert payload["runs"]["1"]["events_total"] > 0
        assert "byte-identical" in render_sweep(payload)

    def test_autodetect_level_resolves_before_the_serial_check(self, tmp_path, capsys):
        # -j 0 means cpu autodetect, a level >= 1: it must not sort ahead
        # of the serial run that every other level is checked against.
        path = tmp_path / "BENCH_sweep.json"
        rc = main(["bench", "sweep", "slurm-1024", "--jobs-levels", "0",
                   "--out", str(path)])
        assert rc == 0
        runs = json.loads(path.read_text())["runs"]
        assert "1" in runs and "0" not in runs

    def test_digest_tracks_payload_bytes(self):
        serial = run_matrix_sweep(["slurm-1024"], seed=0, jobs=1)
        again = run_matrix_sweep(["slurm-1024"], seed=0, jobs=1)
        other = run_matrix_sweep(["slurm-1024"], seed=1, jobs=1)
        assert sweep_digest(serial) == sweep_digest(again)
        assert sweep_digest(serial) != sweep_digest(other)

    def test_checked_in_sweep_file_is_valid(self):
        with open(SWEEP_PATH) as fh:
            payload = json.load(fh)
        assert payload["schema"] == SWEEP_SCHEMA
        assert "1" in payload["runs"]

    def test_checked_in_sweep_file_reproduces(self):
        """A fresh serial sweep of the whole matrix reproduces the file."""
        with open(SWEEP_PATH) as fh:
            recorded = json.load(fh)
        fresh = run_sweep_baseline(jobs_levels=[1], seed=recorded["seed"])
        assert fresh["scenarios"] == recorded["scenarios"]
        assert fresh["runs"]["1"] == recorded["runs"]["1"]
