"""Tests for what-if delta-replay and the perturbation wire format."""

import pytest

from repro.api import SimulationConfig, canonical_json
from repro.errors import ConfigurationError
from repro.sched.job import JobState
from repro.snapshot import (
    PROBE_JOB_ID_BASE,
    CancelJob,
    FailNode,
    SimWorld,
    SubmitJob,
    capture,
    perturbation_from_wire,
    what_if,
)

CONFIG = SimulationConfig(
    rm="eslurm", n_nodes=32, n_satellites=2, seed=7, n_jobs=20, horizon_s=86_400.0
)


def snapshot_at(k=9000, config=CONFIG, detach=False):
    world = SimWorld(config)
    world.run_events_until(k)
    return capture(world, detach=detach)


def snapshot_when(predicate, config=CONFIG):
    """Capture at the first event boundary where ``predicate(world)``."""
    world = SimWorld(config)
    while not predicate(world):
        before = world.sim.events_processed
        if world.run_events_until(before + 1) == 0:
            raise AssertionError("predicate never held before the horizon")
    return capture(world)


class TestWhatIf:
    def test_warm_consumes_cold_rebuilds_same_answer(self):
        warm = what_if(snapshot_at(), SubmitJob(job_nodes=4))
        cold = what_if(snapshot_at(detach=True), SubmitJob(job_nodes=4))
        assert warm.warm and not cold.warm
        a, b = warm.to_payload(), cold.to_payload()
        assert canonical_json(a) == canonical_json(b)

    def test_deterministic_across_repeats(self):
        results = [
            canonical_json(what_if(snapshot_at(), FailNode(node_id=5)).to_payload())
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_delta_replay_is_cheaper_than_rerun(self):
        snapshot = snapshot_at(k=9000)
        outcome = what_if(snapshot, SubmitJob())
        assert outcome.events_at_snapshot == 9000
        assert outcome.events_resumed == outcome.events_total - 9000
        assert outcome.events_resumed < outcome.events_total  # the point

    def test_outcome_payload_shape(self):
        outcome = what_if(snapshot_at(), SubmitJob(job_nodes=2))
        payload = outcome.to_payload()
        assert payload["perturbation"]["kind"] == "submit-job"
        assert payload["snapshot_digest"].startswith("sha256:")
        assert payload["result"]["events"] == payload["events_total"]


class TestPerturbations:
    def test_submit_job_probe_reports_outcome(self):
        outcome = what_if(snapshot_at(), SubmitJob(job_nodes=2, job_runtime_s=60.0))
        probe = outcome.probe
        assert probe["job_id"] >= PROBE_JOB_ID_BASE
        assert probe["started"] is True
        assert probe["wait_s"] >= 0.0

    def test_submit_job_wider_than_machine_rejected(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            what_if(snapshot_at(), SubmitJob(job_nodes=1000))

    def test_fail_node_kills_and_reports(self):
        snapshot = snapshot_when(lambda w: w.rm.pool.running)
        running = snapshot.state["pool"]["running"]
        victim = next(iter(sorted(running.values(), key=lambda r: r["nodes"])))
        node_id = victim["nodes"][0]
        outcome = what_if(snapshot, FailNode(node_id=node_id, duration_s=600.0))
        assert outcome.probe["node_id"] == node_id
        assert outcome.probe["jobs_failed_on_node"]

    def test_fail_node_final_state(self):
        # A busy day: after a short outage node 0 goes to a later job
        # that still holds it at the horizon; a long outage outlasts it.
        config = SimulationConfig(
            rm="eslurm", n_nodes=32, n_satellites=2, seed=7, n_jobs=200, horizon_s=86_400.0
        )
        back = what_if(snapshot_at(3000, config), FailNode(node_id=0, duration_s=600.0))
        dark = what_if(snapshot_at(3000, config), FailNode(node_id=0, duration_s=1e6))
        assert back.probe["jobs_failed_on_node"] == dark.probe["jobs_failed_on_node"] == [2]
        assert back.probe["final_state"] == "ALLOC"
        assert dark.probe["final_state"] == "DOWN"

    def test_fail_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError, match="not a compute node"):
            what_if(snapshot_at(), FailNode(node_id=10_000))

    def test_cancel_queued_job(self):
        # An 8-node machine with a 40-job day actually builds a queue.
        congested = SimulationConfig(
            rm="eslurm", n_nodes=8, n_satellites=2, seed=7, n_jobs=40,
            horizon_s=86_400.0,
        )
        snapshot = snapshot_when(lambda w: len(w.rm.queue) > 0, config=congested)
        queued = snapshot.state["queue"]["ids"]
        outcome = what_if(snapshot, CancelJob(job_id=queued[0]))
        assert outcome.probe == {
            "job_id": queued[0], "found": True,
            "state": JobState.CANCELLED.name, "cancelled": True,
        }

    def test_cancel_absent_job_is_noop(self):
        outcome = what_if(snapshot_at(), CancelJob(job_id=999_999))
        assert outcome.probe["found"] is False
        assert outcome.probe["cancelled"] is False


class TestPerturbationWire:
    @pytest.mark.parametrize("perturbation", [
        SubmitJob(job_nodes=3, job_runtime_s=120.0, job_limit_s=240.0),
        FailNode(node_id=9, duration_s=60.0),
        CancelJob(job_id=4),
    ])
    def test_round_trip(self, perturbation):
        assert perturbation_from_wire(perturbation.to_wire()) == perturbation

    @pytest.mark.parametrize("wire,match", [
        ({"kind": "teleport"}, "unknown perturbation kind"),
        ({"kind": "submit-job", "nodes": 4}, "unknown field"),
        ({"kind": "submit-job", "job_nodes": 0}, "job_nodes"),
        ({"kind": "submit-job", "job_runtime_s": -1.0}, "job_runtime_s"),
        ({"kind": "fail-node", "node_id": -1}, "node_id"),
        ({"kind": "fail-node", "duration_s": 0.0}, "duration_s"),
        ({"kind": "cancel-job", "job_id": -2}, "job_id"),
        ("not-a-dict", "must be an object"),
        pytest.param({"kind": "submit-job", "job_runtime_s": float("nan")},
                     "job_runtime_s must be finite", id="nan-runtime"),
        pytest.param({"kind": "submit-job", "job_runtime_s": float("inf")},
                     "job_runtime_s must be finite", id="inf-runtime"),
        pytest.param({"kind": "submit-job", "job_limit_s": float("nan")},
                     "job_limit_s must be finite", id="nan-limit"),
        pytest.param({"kind": "submit-job", "job_limit_s": float("inf")},
                     "job_limit_s must be finite", id="inf-limit"),
        pytest.param({"kind": "fail-node", "duration_s": float("nan")},
                     "duration_s must not be NaN", id="nan-duration"),
    ])
    def test_malformed_rejected(self, wire, match):
        with pytest.raises(ConfigurationError, match=match):
            perturbation_from_wire(wire)

    def test_endless_outage_is_legal(self):
        # duration_s = inf is a node that never comes back
        outcome = what_if(snapshot_at(), FailNode(node_id=5, duration_s=float("inf")))
        assert outcome.probe["final_state"] == "DOWN"
