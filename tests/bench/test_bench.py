"""Bench harness: payload determinism, schema validation, CLI."""

import json

import pytest

from repro.bench import SCENARIOS, get_scenario, run_bench, validate_payload
from repro.errors import ConfigurationError

#: the one scenario unit tests execute (smallest machine, no failures)
SMOKE = "slurm-1024"


class TestScenarios:
    def test_matrix_shape(self):
        # 2 RMs x 3 machine sizes x failures on/off
        assert len(SCENARIOS) == 12
        rms = {s.rm for s in SCENARIOS.values()}
        sizes = {s.n_nodes for s in SCENARIOS.values()}
        assert rms == {"slurm", "eslurm"}
        assert sizes == {1024, 4096, 16_384}

    def test_names_match_keys(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("nope")


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        assert run_bench(SMOKE, seed=0).to_json() == run_bench(SMOKE, seed=0).to_json()

    def test_different_seed_differs(self):
        a = run_bench(SMOKE, seed=0).payload
        b = run_bench(SMOKE, seed=1).payload
        assert a != b
        assert a["seed"] == 0 and b["seed"] == 1

    def test_no_host_metrics_in_payload(self):
        result = run_bench(SMOKE, seed=0)
        for section in ("counters", "gauges", "histograms"):
            assert not any(k.startswith("host.") for k in result.payload[section])


class TestPayload:
    def test_roundtrip_through_file(self, tmp_path):
        result = run_bench(SMOKE, seed=0)
        path = tmp_path / "payload.json"
        path.write_text(result.to_json())
        loaded = json.loads(path.read_text())
        validate_payload(loaded)
        assert loaded == result.payload

    def test_subsystem_counters_present(self):
        payload = run_bench(SMOKE, seed=0).payload
        for key in ("sim.events", "net.messages", "sched.passes", "rm.broadcasts"):
            assert payload["counters"].get(key, 0) > 0, key
        assert payload["events"] > 0
        assert payload["peak_heap_depth"] > 0
        assert payload["schedule"]["n_completed"] > 0

    def test_validate_rejects_missing_field(self):
        payload = dict(run_bench(SMOKE, seed=0).payload)
        del payload["events"]
        with pytest.raises(ConfigurationError, match="events"):
            validate_payload(payload)

    def test_validate_rejects_wrong_schema(self):
        payload = dict(run_bench(SMOKE, seed=0).payload)
        payload["schema"] = "repro-bench/0"
        with pytest.raises(ConfigurationError, match="schema"):
            validate_payload(payload)


class TestCli:
    def test_bench_list(self, capsys):
        from repro.cli import main

        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in SCENARIOS)

    def test_bare_bench_is_usage_error(self, capsys):
        from repro.cli import main

        for argv in (["bench"], ["bench", "run"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "{list,baseline,sweep,whatif}" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out
