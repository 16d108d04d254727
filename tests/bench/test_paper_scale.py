"""Paper-scale tiers: the anchor file, its checked-in anchors, CLI."""

import json

import pytest

from repro.bench import PAPER_SCALE, build_baseline, dump_baseline, get_scenario, run_bench
from repro.bench.paper_scale import BASELINE_PATH, BASELINE_SCHEMA
from repro.bench.runner import BenchResult

#: the seconds-long tiers; the full 65K/131K days are @slow below
FAST_TIERS = (
    "paper-1024",
    "paper-1024-malleable",
    "paper-1024-topology",
    "paper-4096",
    "paper-16384",
    "paper-65536-smoke",
)


def fake_result(name="paper-1024", seed=0, events=1000, peak=50, wall=2.0):
    spec = get_scenario(name)
    payload = {"events": events, "events_per_sim_s": 0.5, "peak_heap_depth": peak}
    return BenchResult(scenario=spec, seed=seed, payload=payload, host_wall_s=wall)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def assert_matches_anchors(name):
    """A fresh run of ``name`` reproduces its checked-in anchors."""
    tier = load_json(BASELINE_PATH)["tiers"][name]
    result = run_bench(name, seed=tier["seed"])
    assert result.payload["events"] == tier["events"]
    assert result.payload["peak_heap_depth"] == tier["peak_heap_depth"]


class TestScenarios:
    def test_tiers_cover_paper_sizes(self):
        from repro.bench.scenarios import PAPER_TIER_SIZES

        assert PAPER_TIER_SIZES == (1024, 4096, 16_384, 65_536, 131_072)
        assert {s.n_nodes for s in PAPER_SCALE.values()} == set(PAPER_TIER_SIZES)
        for n_nodes in PAPER_TIER_SIZES:
            tier = PAPER_SCALE[f"paper-{n_nodes}"]
            assert tier.rm == "eslurm"
            assert tier.failures
            assert tier.n_jobs == 10_000
            assert tier.horizon_s == 86_400.0

    def test_65536_smoke_is_small_step(self):
        """The 65K smoke builds the full machine over a short horizon."""
        smoke = PAPER_SCALE["paper-65536-smoke"]
        full = PAPER_SCALE["paper-65536"]
        assert smoke.n_nodes == full.n_nodes == 65_536
        assert smoke.horizon_s < full.horizon_s
        assert smoke.n_jobs < full.n_jobs

    def test_reachable_via_get_scenario(self):
        assert get_scenario("paper-1024").n_nodes == 1024
        assert get_scenario("paper-16384").n_nodes == 16_384


class TestBaselineFile:
    def test_roundtrip(self, tmp_path):
        baseline = build_baseline([fake_result()])
        assert baseline["schema"] == BASELINE_SCHEMA
        path = tmp_path / "BENCH_paper_scale.json"
        path.write_text(dump_baseline(baseline))
        assert load_json(path) == baseline

    def test_checked_in_baseline_is_valid(self):
        baseline = load_json(BASELINE_PATH)
        assert baseline["schema"] == BASELINE_SCHEMA
        # Every paper-scale tier is recorded, and only its deterministic
        # anchors: speed is judged by benchmarks/e2e, not by this file.
        assert set(baseline["tiers"]) == set(PAPER_SCALE)
        for tier in baseline["tiers"].values():
            assert "host_wall_s" not in tier
            assert "tolerance" not in tier


class TestSmokeTier:
    @pytest.mark.parametrize("name", FAST_TIERS)
    def test_tier_matches_checked_in_anchors(self, name):
        """The checked-in deterministic anchors reproduce."""
        assert_matches_anchors(name)


@pytest.mark.slow
class TestFullScale:
    @pytest.mark.parametrize("name", ["paper-65536", "paper-131072"])
    def test_full_tier_matches_checked_in_anchors(self, name):
        """The minutes-long tiers reproduce their recorded anchors."""
        assert_matches_anchors(name)


class TestCli:
    def test_baseline_verb_writes_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "baseline.json"
        assert main(["bench", "baseline", "paper-1024", "--out", str(path)]) == 0
        assert "paper-1024" in load_json(path)["tiers"]

    def test_baseline_verb_rejects_bad_name_before_any_run(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        calls = []
        monkeypatch.setattr(
            "repro.bench.run_bench", lambda name, seed=0: calls.append(name)
        )
        path = tmp_path / "baseline.json"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "baseline", "paper-1024", "bogus", "--out", str(path)])
        assert exc.value.code == 2
        assert calls == []
        assert not path.exists()

    def test_list_includes_paper_tiers(self, capsys):
        from repro.cli import main

        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in PAPER_SCALE:
            assert name in out
