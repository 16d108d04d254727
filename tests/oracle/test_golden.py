"""Golden-trace layer: determinism, regression pinning, tamper detection."""

import json
import shutil
from dataclasses import replace

import pytest

from repro.api import SimulationConfig
from repro.bench import PAPER_SCALE
from repro.errors import ConfigurationError
from repro.oracle.golden import (
    DEFAULT_GOLDEN_DIR,
    GOLDEN_SCENARIOS,
    TraceDigest,
    check_golden,
    dump_canonical,
    golden_path,
    record,
    write_golden,
)

pytestmark = pytest.mark.golden

SMALL = {"tiny": SimulationConfig(rm="eslurm", n_nodes=32, n_satellites=1, seed=3, n_jobs=40)}

#: the four 64-node days: what the tamper, missing-file, update and
#: CLI tests re-run (the paper tiers take seconds each)
BASE = {name: GOLDEN_SCENARIOS[name] for name in (
    "slurm-base", "eslurm-base", "eslurm-failures", "eslurm-estimator",
)}


class TestTraceDigest:
    def test_digest_depends_on_every_field(self):
        base = TraceDigest()
        base.hook(1.0, 0, 0)
        for triple in ((2.0, 0, 0), (1.0, 1, 0), (1.0, 0, 1)):
            other = TraceDigest()
            other.hook(*triple)
            assert other.hexdigest() != base.hexdigest()

    def test_digest_tracks_stream_length_and_clock(self):
        digest = TraceDigest()
        digest.hook(1.0, 0, 0)
        digest.hook(5.0, 0, 1)
        assert digest.events == 2
        assert digest.last_time == 5.0

    def test_simulator_hook_seam_feeds_the_digest(self):
        from repro.simkit.core import Simulator

        sim = Simulator(seed=0)
        digest = TraceDigest()
        sim.add_trace_hook(digest.hook)
        for delay in (1.0, 2.0, 3.0):
            sim.timer(lambda: None).arm(delay)
        sim.run()
        assert digest.events == 3 and digest.last_time == 3.0


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        (name, config), = SMALL.items()
        assert dump_canonical(record(name, config)) == dump_canonical(record(name, config))

    def test_different_seed_different_digest(self):
        config = SMALL["tiny"]
        other = replace(config, seed=config.seed + 1)
        assert record("tiny", config)["trace"]["digest"] != record("tiny", other)["trace"]["digest"]

    def test_frozen_files_are_canonical_bytes(self):
        # The files in tests/golden/ must be exactly what dump_canonical
        # produces — hand edits or non-canonical rewrites are findings.
        for name in GOLDEN_SCENARIOS:
            path = golden_path(DEFAULT_GOLDEN_DIR, name)
            payload = json.loads(path.read_text())
            assert path.read_text() == dump_canonical(payload)


class TestRegression:
    @pytest.mark.parametrize("name", list(GOLDEN_SCENARIOS))
    def test_current_tree_matches_frozen_traces(self, name):
        results = check_golden(scenarios={name: GOLDEN_SCENARIOS[name]})
        assert len(results) == 2
        failed = [r.line() for r in results if not r.ok]
        assert not failed, "\n".join(failed)

    def test_every_scenario_has_a_frozen_file(self):
        # ... and every frozen file a scenario: no orphans
        on_disk = {p.name for p in DEFAULT_GOLDEN_DIR.iterdir()}
        assert on_disk == {golden_path(DEFAULT_GOLDEN_DIR, n).name for n in GOLDEN_SCENARIOS}

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


@pytest.fixture()
def golden_copy(tmp_path):
    dst = tmp_path / "golden"
    shutil.copytree(DEFAULT_GOLDEN_DIR, dst)
    return dst


class TestTamperDetection:
    def test_tampered_digest_is_flagged(self, golden_copy):
        path = golden_path(golden_copy, "eslurm-base")
        payload = json.loads(path.read_text())
        payload["trace"]["digest"] = "sha256:" + "0" * 64
        path.write_text(dump_canonical(payload))
        results = check_golden(golden_copy, BASE)
        bad = {r.relation for r in results if not r.ok}
        assert bad == {"golden-digest/eslurm-base"}

    def test_tampered_metric_is_flagged(self, golden_copy):
        path = golden_path(golden_copy, "slurm-base")
        payload = json.loads(path.read_text())
        payload["metrics"]["schedule"]["utilization"] += 0.5
        path.write_text(dump_canonical(payload))
        bad = {r.relation for r in check_golden(golden_copy, BASE) if not r.ok}
        assert bad == {"golden-metrics/slurm-base"}

    def test_missing_file_points_at_update_golden(self, golden_copy):
        golden_path(golden_copy, "eslurm-failures").unlink()
        [missing] = [r for r in check_golden(golden_copy, BASE) if not r.ok]
        assert missing.relation == "golden-digest/eslurm-failures"
        assert "--update-golden" in missing.detail


class TestMalformedFile:
    # No `trace` or `scenario`, bad JSON: the CLI tests' cases (exit 3)
    def break_metrics(payload):
        del payload["metrics"]

    def break_digest(payload):
        del payload["trace"]["digest"]

    @pytest.mark.parametrize("breaker, lacks", [
        (break_metrics, "metrics"), (break_digest, "trace.digest"),
    ], ids=["metrics", "trace.digest"])
    def test_missing_field_names_the_file(self, golden_copy, breaker, lacks):
        path = golden_path(golden_copy, "eslurm-base")
        payload = json.loads(path.read_text())
        breaker(payload)
        path.write_text(dump_canonical(payload))
        with pytest.raises(ConfigurationError, match=f"GOLDEN_eslurm-base.json lacks {lacks}"):
            check_golden(golden_copy, BASE)

    def test_json_that_is_not_an_object_names_the_file(self, golden_copy):
        golden_path(golden_copy, "slurm-base").write_text("[]")
        with pytest.raises(ConfigurationError, match="GOLDEN_slurm-base.json lacks scenario"):
            check_golden(golden_copy, BASE)


class TestUpdateWorkflow:
    def test_write_then_check_roundtrips(self, tmp_path):
        paths = write_golden(tmp_path, SMALL)
        assert [p.name for p in paths] == ["GOLDEN_tiny.json"]
        results = check_golden(tmp_path, SMALL)
        assert all(r.ok for r in results)

    def test_rewrite_is_idempotent(self, tmp_path):
        first = write_golden(tmp_path, SMALL)[0].read_text()
        second = write_golden(tmp_path, SMALL)[0].read_text()
        assert first == second

    def test_default_table_resolves_at_call_time(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.oracle.golden.GOLDEN_SCENARIOS", SMALL)
        assert [p.name for p in write_golden(tmp_path)] == ["GOLDEN_tiny.json"]
        assert [r.relation for r in check_golden(tmp_path)] == [
            "golden-digest/tiny", "golden-metrics/tiny",
        ]
