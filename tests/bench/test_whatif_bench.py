"""Tests for the what-if bench artifact (tiny tier, not paper scale)."""

import json

import pytest

from repro.bench import WHATIF_PATH, dump_whatif, render_whatif, run_whatif_bench
from repro.cli import main
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def payload():
    return run_whatif_bench(
        seed=1, rm="eslurm", n_nodes=16, n_jobs=10, horizon_s=86_400.0,
        cuts=(0.25, 0.75),
    )


class TestRunWhatifBench:
    def test_anchors_are_deterministic(self, payload):
        again = run_whatif_bench(
            seed=1, rm="eslurm", n_nodes=16, n_jobs=10, horizon_s=86_400.0,
            cuts=(0.25, 0.75),
        )
        assert again["anchors"] == payload["anchors"]

    def test_cut_accounting_adds_up(self, payload):
        for cut in payload["anchors"]["cuts"].values():
            assert cut["events_at_snapshot"] + cut["events_resumed"] == (
                cut["events_total"]
            )
            assert 0.0 <= cut["fraction_skipped"] < 1.0

    def test_no_wall_time_in_payload(self, payload):
        assert "host" not in payload
        assert "wall" not in json.dumps(payload)

    def test_cheaper_means_fewer_replayed_events(self, payload):
        full = payload["anchors"]["events_full"]
        assert payload["whatif_cheaper_than_rerun"] is all(
            cut["events_resumed"] < full for cut in payload["anchors"]["cuts"].values()
        )
        assert payload["whatif_cheaper_than_rerun"]

    def test_bad_cut_rejected(self):
        with pytest.raises(ConfigurationError, match="cut"):
            run_whatif_bench(n_nodes=16, n_jobs=5, cuts=(1.5,))

    @pytest.mark.parametrize(
        "cuts, message",
        [("", "at least one snapshot cut"), ("0.5,0.5", "must be distinct")],
        ids=["empty", "repeated"],
    )
    def test_cli_rejects_degenerate_cuts(self, cuts, message, tmp_path, capsys):
        path = tmp_path / "whatif.json"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "whatif", "--n-nodes", "16", "--n-jobs", "5",
                  "--cuts", cuts, "--out", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not path.exists()


class TestArtifactIo:
    def test_roundtrip_through_file(self, payload, tmp_path):
        path = tmp_path / "BENCH_whatif.json"
        text = dump_whatif(payload)
        assert text.endswith("\n")
        path.write_text(text)
        assert json.loads(path.read_text()) == payload

    def test_render_mentions_every_cut(self, payload):
        text = render_whatif(payload)
        for key in payload["anchors"]["cuts"]:
            assert key in text

    def test_checked_in_file_reproduces(self):
        """A fresh run at the defaults reproduces the checked-in file."""
        with open(WHATIF_PATH) as fh:
            recorded = json.load(fh)
        fresh = run_whatif_bench()
        assert fresh["config"] == recorded["config"]
        assert fresh["anchors"] == recorded["anchors"]
        assert recorded["whatif_cheaper_than_rerun"] is True
