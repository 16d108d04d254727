"""Campaign runner, determinism, shrinking, and the chaos CLI.

This file carries the PR's acceptance criteria: every catalogued
scenario runs violation-free, and the same seed reproduces the same
report byte for byte.
"""

import pytest

from repro.chaos import (
    SCENARIOS,
    ChaosScenario,
    Invariant,
    ScheduledFault,
    ddmin,
    get_scenario,
    run_scenario,
    shrink_schedule,
)
from repro.cli import main
from repro.errors import ConfigurationError


class TestScenarioCatalogue:
    def test_catalogue_contents(self):
        assert set(SCENARIOS) == {
            "failure-storm", "rolling-maintenance",
            "master-takeover-cascade", "flapping-node",
            "malleable-shrink-storm", "topology-storm",
        }

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="failure-storm"):
            get_scenario("nope")

    def test_unknown_scenario_is_not_a_keyerror(self):
        # The CLI turns ConfigurationError into a usage error; a raw
        # KeyError would surface as a traceback instead.
        with pytest.raises(ConfigurationError, match="no-such-thing"):
            get_scenario("no-such-thing")

    def test_schedules_are_seed_deterministic_and_sorted(self):
        import numpy as np

        scenario = get_scenario("failure-storm")
        a = scenario.build_schedule(np.random.default_rng(3))
        b = scenario.build_schedule(np.random.default_rng(3))
        assert a == b
        assert a == sorted(a, key=ScheduledFault.sort_key)
        assert a != scenario.build_schedule(np.random.default_rng(4))


class TestCampaignRuns:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_runs_clean(self, name):
        report = run_scenario(name, seed=7)
        assert report.ok, report.to_text()
        assert report.events_processed > 0
        assert report.checks_run == report.events_processed
        assert report.faults_injected > 0
        assert report.jobs_submitted > 0

    def test_failure_storm_exercises_the_monitor(self):
        report = run_scenario("failure-storm", seed=7)
        assert report.alerts_raised > 0
        assert len(report.schedule) == 43  # 40 point + 3 burst

    def test_master_takeover_cascade_reaches_takeover(self):
        report = run_scenario("master-takeover-cascade", seed=7)
        assert report.master_takeovers > 0

    def test_same_seed_same_report(self):
        a = run_scenario("failure-storm", seed=7)
        b = run_scenario("failure-storm", seed=7)
        assert a == b
        assert a.to_text() == b.to_text()

    def test_different_seed_different_run(self):
        a = run_scenario("flapping-node", seed=1)
        b = run_scenario("flapping-node", seed=2)
        assert a.schedule != b.schedule

    def test_report_repro_hint_names_the_cli(self):
        report = run_scenario("flapping-node", seed=3)
        assert "violations: 0" in report.to_text()
        assert "reproduce with" not in report.to_text()
        tripped = run_scenario(
            "flapping-node", seed=3, invariant_factory=lambda: [AnyFailureTripwire()]
        )
        assert not tripped.ok
        hint = "  reproduce with: repro chaos run flapping-node --seed 3"
        assert hint in tripped.to_text().splitlines()


class TestMalleableScenarios:
    def test_shrink_storm_resizes_and_stays_clean(self):
        report = run_scenario("malleable-shrink-storm", seed=0)
        assert report.ok, report.to_text()
        assert report.jobs_grown + report.jobs_shrunk > 0
        assert "resizes:" in report.to_text()

    def test_rigid_scenarios_report_zero_resizes(self):
        report = run_scenario("failure-storm", seed=0)
        assert report.jobs_grown == 0
        assert report.jobs_shrunk == 0

    def test_shrink_storm_deterministic(self):
        a = run_scenario("malleable-shrink-storm", seed=2)
        b = run_scenario("malleable-shrink-storm", seed=2)
        assert a == b
        assert a.to_text() == b.to_text()

    def test_topology_storm_deterministic_and_clean(self):
        a = run_scenario("topology-storm", seed=2)
        b = run_scenario("topology-storm", seed=2)
        assert a.ok, a.to_text()
        assert a == b


class TestDdmin:
    @staticmethod
    def fault(at, node):
        return ScheduledFault(at, "point", (node,), 120.0)

    def test_shrinks_to_the_single_culprit(self):
        items = [self.fault(100.0 * i, i) for i in range(12)]

        def fails(candidate):
            return any(5 in f.node_ids for f in candidate)

        minimal = ddmin(items, fails)
        assert minimal == [self.fault(500.0, 5)]

    def test_keeps_interacting_pairs(self):
        items = [self.fault(100.0 * i, i) for i in range(10)]

        def fails(candidate):
            nodes = {f.node_ids[0] for f in candidate}
            return {2, 7} <= nodes

        minimal = ddmin(items, fails)
        assert {f.node_ids[0] for f in minimal} == {2, 7}

    def test_non_failing_input_returns_empty(self):
        items = [self.fault(10.0, 1)]
        assert ddmin(items, lambda c: False) == []
        assert ddmin([], lambda c: True) == []


def tiny_scenario():
    return ChaosScenario(
        name="tiny",
        description="unit-test scenario",
        n_nodes=16,
        n_satellites=1,
        horizon_s=1800.0,
        n_jobs=4,
        builder=lambda scenario, rng: [],
    )


class NodeThreeTripwire(Invariant):
    """Fires iff compute node 3 ever actually fails — a planted 'bug'
    whose trigger the shrinker must isolate."""

    name = "node-three-tripwire"

    def attach(self, ctx, report):
        def listener(kind, node_ids, when):
            if kind != "recover" and 3 in node_ids:
                report(f"node 3 failed at {when:.0f}")

        ctx.cluster.failures.subscribe(listener)


class AnyFailureTripwire(Invariant):
    """Fires on every node failure: makes any faulty run a violating one."""

    name = "any-failure-tripwire"

    def attach(self, ctx, report):
        def listener(kind, node_ids, when):
            if kind != "recover":
                report(f"nodes {node_ids} failed at {when:.0f}")

        ctx.cluster.failures.subscribe(listener)


class TestShrinkSchedule:
    def schedule(self):
        return [
            ScheduledFault(100.0 + 60.0 * i, "point", (node,), 120.0)
            for i, node in enumerate([1, 9, 3, 12, 6, 14])
        ]

    def test_shrinks_to_the_tripwire_fault(self):
        minimal = shrink_schedule(
            tiny_scenario(),
            seed=0,
            schedule=self.schedule(),
            invariant_factory=lambda: [NodeThreeTripwire()],
        )
        assert len(minimal) == 1
        assert minimal[0].node_ids == (3,)

    def test_clean_schedule_shrinks_to_nothing(self):
        minimal = shrink_schedule(
            tiny_scenario(),
            seed=0,
            schedule=[ScheduledFault(100.0, "point", (1,), 120.0)],
            invariant_factory=lambda: [NodeThreeTripwire()],
        )
        assert minimal == []

    def test_budget_exhaustion_returns_best_so_far(self):
        minimal = shrink_schedule(
            tiny_scenario(),
            seed=0,
            schedule=self.schedule(),
            invariant_factory=lambda: [NodeThreeTripwire()],
            max_runs=2,  # enough for the full run + one candidate
        )
        # Whatever was reached, it must still contain the culprit.
        assert any(3 in f.node_ids for f in minimal)


class TestChaosCli:
    def test_run_clean_scenario_exits_zero(self, capsys):
        assert main(["chaos", "run", "failure-storm", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "chaos campaign: failure-storm (seed=7)" in out
        assert "violations: 0" in out

    def test_list_enumerates_catalogue(self, capsys):
        assert main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "run", "no-such-scenario"])
        assert exc.value.code == 2
        assert "no-such-scenario" in capsys.readouterr().err

    def test_experiment_cli_still_works(self, capsys):
        assert main(["list"]) == 0
        assert "fig7" in capsys.readouterr().out
