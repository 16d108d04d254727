"""``repro verify``: wiring and exit codes.

Every checking verb must exit 0 on a healthy tree and nonzero the
moment any relation fails — these tests drive the real CLI entry point
in-process.
"""

import json
import shutil

import pytest

from repro.cli import main
from repro.oracle.golden import (
    DEFAULT_GOLDEN_DIR,
    GOLDEN_SCENARIOS,
    dump_canonical,
    golden_path,
)
from repro.oracle.verify import LAYERS, VerifyReport, run_verify
from repro.oracle.relations import RelationResult


@pytest.fixture()
def base_golden_table(monkeypatch):
    """Narrow the golden table to the four 64-node days (the paper
    tiers are re-run once, in test_golden)."""
    base = {name: GOLDEN_SCENARIOS[name] for name in (
        "slurm-base", "eslurm-base", "eslurm-failures", "eslurm-estimator",
    )}
    monkeypatch.setattr("repro.oracle.golden.GOLDEN_SCENARIOS", base)


def _ok(name="r", layer="differential"):
    return RelationResult(name, True, "fine", layer=layer)


def _fail(name="r", layer="differential"):
    return RelationResult(name, False, "broke", layer=layer)


class TestVerifyReport:
    def test_ok_and_counts(self):
        report = VerifyReport(seed=0, results=[_ok(), _fail(), _fail()])
        assert not report.ok and report.n_failed == 2
        assert "FAIL" in report.to_text()
        assert VerifyReport(seed=0, results=[_ok()]).ok

    def test_payload_shape(self):
        payload = VerifyReport(seed=5, results=[_ok("x")]).to_payload()
        assert payload["seed"] == 5 and payload["ok"] is True
        assert payload["results"][0]["relation"] == "x"

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown verify layers"):
            run_verify(layers=("differential", "nope"))

    def test_layer_selection_runs_only_that_layer(self):
        report = run_verify(seed=0, layers=("metamorphic",))
        assert report.results and {r.layer for r in report.results} == {"metamorphic"}


class TestVerifyCli:
    def test_metamorphic_layer_exits_zero(self, capsys):
        assert main(["verify", "--layer", "metamorphic", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "verify: OK" in out and "relabel-invariance" in out

    def test_bare_flags_imply_run(self, capsys):
        # `repro verify --seed 42 --layer metamorphic` — no subcommand word.
        assert main(["verify", "--seed", "42", "--layer", "metamorphic"]) == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["verify", "--layer", "metamorphic", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["n_failed"] == 0

    def test_list_enumerates_relations_and_scenarios(self, capsys):
        assert main(["verify", "list"]) == 0
        out = capsys.readouterr().out
        for needle in ("master-offload", "capacity-monotonicity", "golden/eslurm-base"):
            assert needle in out

    def test_golden_layer_against_frozen_tree(self, base_golden_table, capsys):
        assert main(["verify", "--layer", "golden"]) == 0
        assert "verify: OK" in capsys.readouterr().out


class TestRelationFilter:
    def test_run_verify_filters_by_name(self):
        report = run_verify(seed=0, relations=["rack-relabel-score"])
        assert [r.relation for r in report.results] == ["rack-relabel-score"]
        assert report.ok

    def test_filter_spans_both_layers(self):
        report = run_verify(
            seed=0, relations=["rack-relabel-score", "shrink-grow-roundtrip"]
        )
        assert {r.relation for r in report.results} == {
            "rack-relabel-score", "shrink-grow-roundtrip",
        }

    def test_filter_drops_golden_layer(self):
        # Golden checks are frozen scenarios, not named relations — a
        # filter silently skipping them beats failing on every run.
        report = run_verify(seed=0, relations=["rack-relabel-score"])
        assert all(r.layer != "golden" for r in report.results)

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="unknown relations"):
            run_verify(seed=0, relations=["no-such-relation"])

    def test_cli_relation_flag(self, capsys):
        rc = main(["verify", "--relation", "rack-relabel-score", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rack-relabel-score" in out and "1/1 relations held" in out

    def test_cli_unknown_relation_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--relation", "no-such-thing"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "no-such-thing" in err and "malleable-throughput" in err

    def test_cli_relation_conflicts_with_update_golden(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--relation", "rack-relabel-score", "--update-golden"])
        assert exc.value.code == 2


@pytest.mark.usefixtures("base_golden_table")
class TestVerifyExitCodes:
    @pytest.fixture()
    def tampered_golden(self, tmp_path):
        dst = tmp_path / "golden"
        shutil.copytree(DEFAULT_GOLDEN_DIR, dst)
        path = golden_path(dst, "eslurm-base")
        payload = json.loads(path.read_text())
        payload["trace"]["digest"] = "sha256:" + "f" * 64
        path.write_text(dump_canonical(payload))
        return dst

    def test_tampered_golden_exits_nonzero(self, tampered_golden, capsys):
        rc = main(["verify", "--layer", "golden", "--golden-dir", str(tampered_golden)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_update_golden_regenerates_and_passes(self, tampered_golden, capsys):
        rc = main(
            ["verify", "--layer", "golden", "--golden-dir", str(tampered_golden), "--update-golden"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[gold] wrote" in out and "verify: OK" in out

    def test_empty_golden_dir_exits_nonzero(self, tmp_path, capsys):
        rc = main(["verify", "--layer", "golden", "--golden-dir", str(tmp_path / "empty")])
        assert rc == 1
        assert "--update-golden" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["trace", "scenario"])
    def test_malformed_golden_file_is_a_config_error(self, tmp_path, capsys, key):
        dst = tmp_path / "golden"
        shutil.copytree(DEFAULT_GOLDEN_DIR, dst)
        path = golden_path(dst, "eslurm-base")
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(dump_canonical(payload))
        rc = main(["verify", "--layer", "golden", "--golden-dir", str(dst)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"GOLDEN_eslurm-base.json lacks {key}" in err
        assert "Traceback" not in err

    def test_invalid_json_golden_file_is_a_config_error(self, tmp_path, capsys):
        dst = tmp_path / "golden"
        dst.mkdir()
        golden_path(dst, "slurm-base").write_text("{not json")
        rc = main(["verify", "--layer", "golden", "--golden-dir", str(dst)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "GOLDEN_slurm-base.json is not JSON" in err
        assert "Traceback" not in err
