"""Tests for the typed request/response envelopes and their digests.

The digest is the request's canonical identity (the CLI prints it), so
its contract is load-bearing: equal (config, seed) must collide, any
single field change must not, and the value must be identical whether
computed in this process or in a fresh interpreter with a different
hash seed.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import (
    ChaosRequest,
    EstimateRequest,
    REQUEST_KINDS,
    SimulateRequest,
    VerifyRequest,
    WhatIfRequest,
    dispatch,
    request_from_wire,
)
from repro.cli import main
from repro.errors import ConfigurationError


class TestDigest:
    def test_identical_config_and_seed_identical_digest(self):
        a = SimulateRequest(rm="slurm", n_nodes=128, seed=7)
        b = SimulateRequest(rm="slurm", n_nodes=128, seed=7)
        assert a == b
        assert a.digest() == b.digest()

    @pytest.mark.parametrize(
        "change",
        [
            {"rm": "eslurm"},
            {"n_nodes": 129},
            {"placement": "topology"},
            {"malleable": True},
            {"seed": 8},
            {"failures": True},
            {"n_jobs": 501},
        ],
    )
    def test_any_single_field_change_changes_digest(self, change):
        base = SimulateRequest(rm="slurm", n_nodes=128, seed=7)
        changed = dataclasses.replace(base, **change)
        assert changed.digest() != base.digest()

    def test_digests_distinct_across_kinds_at_same_seed(self):
        digests = {
            SimulateRequest(seed=3).digest(),
            ChaosRequest(seed=3).digest(),
            VerifyRequest(seed=3).digest(),
            EstimateRequest(seed=3).digest(),
            WhatIfRequest(seed=3).digest(),
        }
        assert len(digests) == 5

    def test_whatif_sparse_and_explicit_perturb_collide(self):
        # the perturbation is canonicalised into the digest, so a sparse
        # wire form and its fully spelled-out equivalent share one cache
        # slot
        sparse = WhatIfRequest(seed=3, perturb={"kind": "submit-job"})
        explicit = WhatIfRequest(
            seed=3,
            perturb={"kind": "submit-job", "job_nodes": 8,
                     "job_runtime_s": 3600.0, "job_limit_s": None},
        )
        assert sparse.digest() == explicit.digest()

    def test_digest_stable_across_processes(self):
        # Two fresh interpreters with different string-hash seeds must
        # print the digest this process computes for the same request.
        request = VerifyRequest(seed=11, layers=("metamorphic",),
                                relations=("relabel-invariance",))
        code = (
            "from repro.api import VerifyRequest\n"
            "print(VerifyRequest(seed=11, layers=('metamorphic',),"
            " relations=('relabel-invariance',)).digest())"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, check=True,
            )
            assert out.stdout.strip() == request.digest()


class TestWire:
    @pytest.mark.parametrize("request_", [
        SimulateRequest(rm="slurm", n_nodes=64, seed=2, malleable=True),
        ChaosRequest(scenario="flapping-node", seed=4),
        VerifyRequest(seed=5, layers=("metamorphic",), relations=("rack-relabel-score",)),
        EstimateRequest(seed=6, n_history=60, max_nodes=16),
        WhatIfRequest(seed=7, n_nodes=64, at_s=7200.0,
                      perturb={"kind": "fail-node", "node_id": 3}),
    ])
    def test_wire_round_trip(self, request_):
        rebuilt = request_from_wire(request_.to_wire())
        assert rebuilt == request_
        assert rebuilt.digest() == request_.digest()
        # the wire dict itself is JSON-serialisable
        json.dumps(request_.to_wire())

    def test_kinds_registry(self):
        assert REQUEST_KINDS == ("chaos", "estimate", "simulate", "verify", "what-if")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown request kind"):
            request_from_wire({"kind": "teleport"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown simulate request field"):
            request_from_wire({"kind": "simulate", "n_nodez": 4})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown RM"):
            request_from_wire({"kind": "simulate", "rm": "htcondor"})
        with pytest.raises(ConfigurationError, match="unknown verify layers"):
            VerifyRequest(layers=("vibes",))
        with pytest.raises(ConfigurationError, match="n_history"):
            EstimateRequest(n_history=3)
        with pytest.raises(ConfigurationError):
            ChaosRequest(scenario="nope")

    @pytest.mark.parametrize("wire, match", [
        ({"perturb": {"kind": "teleport"}}, "unknown perturbation kind"),
        ({"perturb": {"kind": "submit-job", "nodes": 4}}, r"unknown field\(s\) \['nodes'\]"),
        ({"perturb": {"kind": "fail-node", "duration_s": -1.0}}, "duration_s must be positive"),
        ({"at_s": 999_999.0}, "must lie in"),
        ({"at_z": 1.0}, "unknown what-if request field"),
    ], ids=["teleport", "nodes-typo", "negative-duration", "at-s-beyond-horizon", "unknown-field"])
    def test_malformed_whatif_rejected(self, wire, match):
        small = {"kind": "what-if", "rm": "eslurm", "n_nodes": 8,
                 "n_satellites": 2, "n_jobs": 5}
        with pytest.raises(ConfigurationError, match=match):
            request_from_wire({**small, **wire})

    def test_whatif_cli_rejects_at_s_beyond_horizon(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["whatif", "run", "--n-nodes", "8", "--at-s", "999999"])
        assert exc.value.code == 2
        assert "at_s=999999.0 must lie in [0, horizon_s=86400.0)" in capsys.readouterr().err


class TestDispatch:
    def test_dispatch_rejects_untyped_input(self):
        with pytest.raises(ConfigurationError, match="typed request envelope"):
            dispatch({"kind": "simulate"})

    def test_verify_dispatch_deterministic_envelope(self):
        request = VerifyRequest(seed=3, layers=("metamorphic",),
                                relations=("relabel-invariance",))
        a = dispatch(request).to_wire()
        b = dispatch(request).to_wire()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["digest"] == request.digest()
        assert a["ok"] is True
        assert a["result"]["n_relations"] == 1

    def test_simulate_response_carries_report_and_counters(self):
        request = SimulateRequest(rm="slurm", n_nodes=32, n_jobs=5,
                                  horizon_s=3600.0, seed=1)
        response = dispatch(request)
        result = response.result()
        assert result["rm"] == "slurm"
        assert result["events"] > 0
        assert result["sim_time_s"] == 3600.0
        # the rich report object rides along for CLI rendering
        summary = response.simulation.report.summary()
        assert summary.startswith("[slurm]") and "master:" in summary

    def test_estimate_response_sources(self):
        trained = dispatch(EstimateRequest(seed=2, n_history=60, max_nodes=16))
        assert trained.ok
        assert trained.estimate_s is not None and trained.estimate_s > 0
        assert trained.source == "model"
        assert trained.trainings >= 1
