"""Tests for the CLI entry point."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import EXPERIMENTS, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_quick_placement_runs(capsys):
    assert main(["placement", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "placed on leaves" in out


def test_quick_table8_runs(capsys):
    assert main(["table8", "--quick"]) == 0
    assert "Table VIII" in capsys.readouterr().out


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_simulate_non_finite_horizon_is_usage_error(horizon, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "run", "--horizon-s", horizon])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "horizon_s out of range" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# simulate / estimate / chaos / verify verbs
# ---------------------------------------------------------------------------
SMALL_DAY = ["--rm", "slurm", "--n-nodes", "32", "--n-jobs", "5",
             "--horizon-s", "3600", "--seed", "1"]
SMALL_ESTIMATE = ["estimate", "--n-history", "60", "--max-nodes", "16", "--seed", "2"]


def run_cli(capsys, *argv):
    """``(exit code, stdout, stderr)`` of one in-process CLI call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    return json.loads(out)


class TestRunDigest:
    def test_identical_invocations_identical_digest(self, capsys):
        a = run_json(capsys, "simulate", *SMALL_DAY)["digest"]
        b = run_json(capsys, "simulate", *SMALL_DAY)["digest"]
        assert a == b

    @pytest.mark.parametrize("flag", [
        ["--rm", "eslurm"],
        ["--n-nodes", "33"],
        ["--placement", "topology"],
        ["--malleable"],
        ["--seed", "2"],
        ["--failures"],
        ["--n-jobs", "6"],
    ], ids=lambda flag: flag[0])
    def test_any_single_flag_change_changes_digest(self, flag, capsys):
        base = run_json(capsys, "simulate", *SMALL_DAY)["digest"]
        assert run_json(capsys, "simulate", *SMALL_DAY, *flag)["digest"] != base

    def test_digests_distinct_across_verbs(self, capsys):
        digests = {
            run_json(capsys, "simulate", *SMALL_DAY, "--seed", "3")["digest"],
            run_json(capsys, *SMALL_ESTIMATE, "--seed", "3")["digest"],
        }
        assert len(digests) == 2

    def test_digest_stable_across_processes(self, capsys):
        # Two fresh interpreters with different string-hash seeds print
        # the digest this process computes for the same run.
        digest = run_json(capsys, *SMALL_ESTIMATE)["digest"]
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
            out = subprocess.run(
                [sys.executable, "-m", "repro.cli", *SMALL_ESTIMATE, "--json"],
                env=env, capture_output=True, text=True, check=True,
            )
            assert json.loads(out.stdout)["digest"] == digest

    def test_digests_pinned(self, capsys):
        # A digest is a recorded identity: the kind names and params it
        # hashes must not drift, or every digest printed so far breaks.
        assert run_json(capsys, "simulate", *SMALL_DAY)["digest"] == (
            "21589eda20acc0a589ba07594562bb2b34d187904c9390f9f84b97e439a79c9c"
        )
        assert run_json(capsys, *SMALL_ESTIMATE)["digest"] == (
            "e7d8b8818e652c7d304bf2b1d49f561bfe88e4a8993565395fd2e3a2d2c23d1a"
        )


#: a day whose last event (990 s) falls before its horizon
PINNED_DAY = ["simulate", "run", "--n-nodes", "256", "--n-jobs", "100", "--horizon-s", "1000.37"]


class TestSimulatePinned:
    """``repro simulate`` stdout, pinned byte for byte."""

    JSON_SHA256 = "dbb597a5cf91b177bcb8f2d1d22bb978d816fdbd7ccc7b350d8b0c0558349547"
    TEXT_SHA256 = "8d628dec12d4073d0685c8f233c8eae3a61295a73a1da0d064fb8d1fb4b57c74"

    @pytest.mark.parametrize("json_flag", [True, False], ids=["json", "text"])
    def test_stdout_pinned_and_run_telemetry_off(self, json_flag, capsys, monkeypatch):
        from repro.simkit.core import Simulator
        from repro.telemetry import facade as telemetry

        sessions = []
        run = Simulator.run

        def spy(sim, *args, **kwargs):
            sessions.append(telemetry.active())
            return run(sim, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", spy)
        argv = PINNED_DAY + (["--json"] if json_flag else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert sessions and all(tel is None for tel in sessions)
        expected = self.JSON_SHA256 if json_flag else self.TEXT_SHA256
        assert hashlib.sha256(out.encode()).hexdigest() == expected
        if json_flag:
            result = json.loads(out)["result"]
            assert (result["events"], result["sim_time_s"]) == (157, 990.0)


class TestEstimatePinned:
    """``repro estimate run`` stdout, pinned byte for byte: the estimate
    itself, not only the parameter digest."""

    JSON_SHA256 = "d496b1623717d32e24412e2362eace888df394061ad0fc1dd51ec480ee79ab00"
    TEXT_SHA256 = "f8a2195f18e89eedc5263074ae14f1b3eca9e1d99bdc29d773b4f1fda50aceb9"

    @pytest.mark.parametrize("json_flag", [True, False], ids=["json", "text"])
    def test_stdout_pinned(self, json_flag, capsys):
        argv = ["estimate", "run"] + (["--json"] if json_flag else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        expected = self.JSON_SHA256 if json_flag else self.TEXT_SHA256
        assert hashlib.sha256(out.encode()).hexdigest() == expected
        if json_flag:
            result = json.loads(out)["result"]
            assert (result["source"], result["trainings"]) == ("model", 6)


class TestRunResults:
    def test_simulate_json_carries_counters(self, capsys):
        payload = run_json(capsys, "simulate", *SMALL_DAY)
        assert set(payload) == {"kind", "digest", "ok", "result"}
        assert payload["kind"] == "simulate" and payload["ok"] is True
        assert payload["result"]["rm"] == "slurm"
        assert payload["result"]["events"] > 0
        assert payload["result"]["sim_time_s"] == 3600.0

    def test_estimate_on_trained_history_answers_from_model(self, capsys):
        result = run_json(capsys, *SMALL_ESTIMATE)["result"]
        assert result["source"] == "model"
        assert result["estimate_s"] is not None and result["estimate_s"] > 0
        assert result["trainings"] >= 1

    def test_verify_json_deterministic(self, capsys):
        argv = ["verify", "--seed", "3", "--layer", "metamorphic",
                "--relation", "relabel-invariance"]
        a = run_json(capsys, *argv)
        assert a == run_json(capsys, *argv)
        assert a["ok"] is True and a["n_relations"] == 1


def usage_case(id_, message, *argv):
    return pytest.param(list(argv), message, id=id_)


#: (verb argv, flag) for every numeric flag of the run verbs
NUMERIC_FLAGS = [
    *((("simulate", "run"), name) for name in (
        "--seed", "--n-nodes", "--n-satellites", "--n-jobs", "--horizon-s")),
    *((("estimate", "run"), name) for name in (
        "--seed", "--n-history", "--max-nodes", "--job-nodes", "--user-estimate-s",
        "--k-clusters")),
    *((("chaos", "run", "failure-storm"), name) for name in ("--seed", "--seeds", "--jobs")),
    *((("verify", "run", "--relation", "master-offload"), name)
      for name in ("--seed", "--seeds", "--jobs")),
]


class TestMalformedInput:
    @pytest.mark.parametrize("argv, message", [
        usage_case("estimate-n-history", "n_history must be in [50, 5000]",
                   "estimate", "--n-history", "10"),
        usage_case("estimate-job-nodes", "max_nodes/job_nodes must be >= 1",
                   "estimate", "--job-nodes", "0"),
        usage_case("estimate-k-clusters", "k_clusters must be >= 1",
                   "estimate", "--k-clusters", "0"),
        usage_case("estimate-negative-user", "user_estimate_s must be positive",
                   "estimate", "--user-estimate-s", "-5"),
        usage_case("estimate-nan-user", "user_estimate_s must be finite",
                   "estimate", "--user-estimate-s", "nan"),
        usage_case("estimate-inf-user", "user_estimate_s must be finite",
                   "estimate", "--user-estimate-s", "inf"),
        usage_case("simulate-unknown-rm", "unknown RM 'foo'", "simulate", "--rm", "foo"),
        usage_case("simulate-zero-jobs", "n_jobs must be >= 1, got 0",
                   "simulate", "run", "--n-jobs", "0"),
        usage_case("simulate-negative-satellites", "n_satellites must be >= 0, got -1",
                   "simulate", "run", "--n-satellites", "-1"),
        usage_case("chaos-unknown-scenario", "unknown chaos scenario 'nope'",
                   "chaos", "run", "nope"),
        usage_case("verify-unknown-relation", "unknown relations: ['nope']",
                   "verify", "--relation", "nope"),
        usage_case("verify-unknown-layer", "invalid choice: 'vibes'",
                   "verify", "--layer", "vibes"),
        usage_case("simulate-negative-seed", "argument --seed: must be >= 0, got -1",
                   "simulate", "run", "--seed", "-1"),
        usage_case("chaos-negative-seed", "argument --seed: must be >= 0, got -1",
                   "chaos", "run", "failure-storm", "--seed", "-1"),
        usage_case("verify-negative-jobs", "argument -j/--jobs: must be >= 0, got -5",
                   "verify", "--relation", "master-offload", "-j", "-5"),
        usage_case("chaos-campaign-negative-jobs", "argument -j/--jobs: must be >= 0, got -1",
                   "chaos", "run", "failure-storm", "--seeds", "2", "-j", "-1"),
        usage_case("chaos-one-cell-negative-jobs", "argument -j/--jobs: must be >= 0, got -1",
                   "chaos", "run", "failure-storm", "-j", "-1"),
        usage_case("all-negative-jobs", "argument -j/--jobs: must be >= 0, got -2",
                   "all", "--quick", "-j", "-2"),
        usage_case("bench-is-gone", "invalid choice: 'bench'", "bench"),
        usage_case("bench-sweep-is-gone", "invalid choice: 'bench'", "bench", "sweep"),
    ])
    def test_usage_error_before_any_run(self, argv, message, capsys):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        # rejected while parsing: no progress line, so nothing ran
        assert out == ""

    @settings(max_examples=60, deadline=None)
    @given(
        flag=st.sampled_from(NUMERIC_FLAGS),
        value=st.one_of(
            st.integers(max_value=-1).map(str),
            st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999", "many", ""]),
        ),
    )
    def test_malformed_numeric_flag_is_a_clean_usage_error(self, flag, value):
        verb, name = flag
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*verb, f"{name}={value}"])
            except SystemExit as exc:
                code = exc.code
        assert code in (2, 3), (verb, name, value, code)
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()

