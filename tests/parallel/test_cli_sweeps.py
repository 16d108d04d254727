"""Sweep surfaces end to end: CLI exit codes and crash surfacing.

Poisoning uses ``jobs=1`` (the inline path resolves handlers in-process,
so a monkeypatched ``run_scenario`` is visible) or raw ``Task`` cells
with bad specs (which poison real workers).  Either way the contract is
the same: only the poisoned cell fails, the rest of the sweep
completes, and the failure surfaces in the report and exit code.
"""

import json

import pytest

from repro.chaos import campaign_cell_id, run_campaign
from repro.cli import main
from repro.parallel import Task, run_tasks


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

    def test_poisoned_spec_contained_in_real_workers(self):
        # Raw cells bypass run_campaign's name check to poison a worker.
        tasks = [
            Task(id="good", kind="chaos", spec={"scenario": "flapping-node", "seed": 0}),
            Task(id="bad", kind="chaos", spec={"scenario": "no-such-scenario", "seed": 0}),
        ]
        results = run_tasks(tasks, jobs=2)
        by_id = {r.task_id: r for r in results}
        assert by_id["good"].ok
        assert not by_id["bad"].ok
        assert "no-such-scenario" in by_id["bad"].error


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
