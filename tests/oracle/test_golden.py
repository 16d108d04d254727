"""Golden-trace layer: determinism, regression pinning, tamper detection."""

import json
import shutil
from pathlib import Path

import pytest

from repro.oracle.golden import (
    DEFAULT_GOLDEN_DIR,
    GOLDEN_SCENARIOS,
    GoldenScenario,
    TraceDigest,
    check_golden,
    dump_canonical,
    golden_path,
    load_golden,
    write_golden,
)

pytestmark = pytest.mark.golden

SMALL = GoldenScenario(name="tiny", rm="eslurm", n_nodes=32, n_satellites=1, seed=3, n_jobs=40)


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
        assert dump_canonical(SMALL.record()) == dump_canonical(SMALL.record())

    def test_different_seed_different_digest(self):
        import dataclasses

        other = dataclasses.replace(SMALL, seed=SMALL.seed + 1)
        assert SMALL.record()["trace"]["digest"] != other.record()["trace"]["digest"]

    def test_frozen_files_are_canonical_bytes(self):
        # The files in tests/golden/ must be exactly what dump_canonical
        # produces — hand edits or non-canonical rewrites are findings.
        for scenario in GOLDEN_SCENARIOS:
            path = golden_path(DEFAULT_GOLDEN_DIR, scenario.name)
            payload = json.loads(path.read_text())
            assert path.read_text() == dump_canonical(payload)


class TestRegression:
    def test_current_tree_matches_frozen_traces(self):
        results = check_golden()
        assert results, "no golden results produced"
        failed = [r.line() for r in results if not r.ok]
        assert not failed, "\n".join(failed)

    def test_every_scenario_has_a_frozen_file(self):
        frozen = load_golden()
        assert {s.name for s in GOLDEN_SCENARIOS} <= set(frozen)


class TestTamperDetection:
    @pytest.fixture()
    def golden_copy(self, tmp_path):
        dst = tmp_path / "golden"
        shutil.copytree(DEFAULT_GOLDEN_DIR, dst)
        return dst

    def test_tampered_digest_is_flagged(self, golden_copy):
        path = golden_path(golden_copy, "eslurm-base")
        payload = json.loads(path.read_text())
        payload["trace"]["digest"] = "sha256:" + "0" * 64
        path.write_text(dump_canonical(payload))
        results = check_golden(golden_copy)
        bad = {r.relation for r in results if not r.ok}
        assert bad == {"golden-digest/eslurm-base"}

    def test_tampered_metric_is_flagged(self, golden_copy):
        path = golden_path(golden_copy, "slurm-base")
        payload = json.loads(path.read_text())
        payload["metrics"]["schedule"]["utilization"] += 0.5
        path.write_text(dump_canonical(payload))
        bad = {r.relation for r in check_golden(golden_copy) if not r.ok}
        assert bad == {"golden-metrics/slurm-base"}

    def test_missing_file_points_at_update_golden(self, golden_copy):
        golden_path(golden_copy, "eslurm-failures").unlink()
        [missing] = [r for r in check_golden(golden_copy) if not r.ok]
        assert missing.relation == "golden-digest/eslurm-failures"
        assert "--update-golden" in missing.detail


class TestUpdateWorkflow:
    def test_write_then_check_roundtrips(self, tmp_path):
        scenarios = [SMALL]
        paths = write_golden(tmp_path, scenarios)
        assert [p.name for p in paths] == ["GOLDEN_tiny.json"]
        results = check_golden(tmp_path, scenarios)
        assert all(r.ok for r in results)

    def test_rewrite_is_idempotent(self, tmp_path):
        first = write_golden(tmp_path, [SMALL])[0].read_text()
        second = write_golden(tmp_path, [SMALL])[0].read_text()
        assert first == second
