"""The benchmark's own checks, on a tiny scenario (``pytest benchmarks/e2e``)."""

from __future__ import annotations

import contextlib
import copy

import pytest

from benchmarks.e2e import ledger, run, workloads
from benchmarks.e2e.ledger import LAYER_METRICS, Layer, Ledger
from repro.api import run_simulation
from repro.bench.scenarios import BenchScenario

TINY = BenchScenario(
    name="tiny", rm="eslurm", n_nodes=96, n_satellites=2, failures=True,
    n_jobs=400, horizon_s=6 * 3600.0, malleable_fraction=0.5,
)
TINY_SLURM = BenchScenario(
    name="tiny-slurm", rm="slurm", n_nodes=96, n_satellites=2, failures=True,
    n_jobs=400, horizon_s=6 * 3600.0,
)


@pytest.mark.parametrize("spec", [TINY, TINY_SLURM], ids=lambda s: s.name)
def test_sliced_run_matches_one_shot_run_simulation(spec):
    # run_simulation seeds trace and machine alike, so compare there
    seed = workloads.TRACE_SEED
    rep = workloads.run_rep(spec, seed)
    one_shot = run_simulation(workloads.simulation_config(spec, seed))
    assert len(rep.slices) == workloads.SLICES
    assert rep.digest == workloads.report_digest(one_shot.report)


def test_ledger_sums_to_traced_run_time():
    ledger = Ledger()
    with ledger.installed():
        rep = workloads.run_rep(TINY, 1, ledger.start_run)
    m = ledger.metrics(rep)
    assert set(m) == set(LAYER_METRICS) - {"trace.overhead_frac"}
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert abs(self_total - m["trace.run_s"]) < 1e-3
    for name in ("rm.lifecycle.calls", "rm.submit.calls", "sched.plan.calls",
                 "estimate.calls", "network.tree.calls", "fptree.construct.calls"):
        assert m[name] > 0, name
    # tracing observes; it must not change the simulated outcome
    assert rep.digest == workloads.run_rep(TINY, 1).digest


def test_patched_attributes_are_restored_even_when_the_pass_raises():
    targets = [(owner, name) for owner, name, _ in Ledger()._patches()]
    before = [owner.__dict__.get(name) for owner, name in targets]
    with pytest.raises(RuntimeError):
        with Ledger().installed():
            assert [owner.__dict__.get(name) for owner, name in targets] != before
            raise RuntimeError("traced repetition failed")
    assert [owner.__dict__.get(name) for owner, name in targets] == before


def test_p90_is_unresolved_with_fewer_than_ten_samples_beyond_it():
    short = run.p90([float(i) for i in range(72)], "s")  # 3 repetitions x 24 slices
    assert short["value"] is None and short["beyond"] < 10
    full = run.p90([float(i) for i in range(120)], "s")  # 5 x 24
    assert full["value"] is not None and full["beyond"] >= 10


def test_child_counts_raising_and_mismatched_repetitions(monkeypatch):
    # (machine, digest) per call: warm-up, timed 0..4, traced
    calls = iter([(5000, "m0"), (5000, "m0"), (5001, None), (5002, "m2"),
                  (5003, "m3"), (5004, "m4"), (5000, "drift")])

    def fake_rep(spec, machine, on_run_start=None):
        expected_machine, digest = next(calls)
        assert machine == expected_machine
        if digest is None:
            raise RuntimeError("simulation crashed")
        return workloads.Rep(setup_wall_s=0.1, cluster_wall_s=0.0,
                             slices_wall=[0.01] * workloads.SLICES,
                             probes=[workloads.REFERENCE_S] * (workloads.SLICES + 2),
                             digest=digest, events=10)

    monkeypatch.setattr(workloads, "scenario", lambda name: None)
    monkeypatch.setattr(workloads, "run_rep", fake_rep)
    monkeypatch.setattr(ledger.Ledger, "installed", contextlib.nullcontext)
    raw = run.run_child("eslurm-16k-day", seed=5, seconds=0.0, trace=True)
    # machine 5001 raised; the traced re-run of machine 5000 drifted
    assert (raw["attempted"], raw["failed"]) == (2 + workloads.MIN_REPS, 2)
    assert len(raw["run_s"]) == workloads.MIN_REPS - 1
    assert raw["layers"] is None
    assert run.summarize(raw)["failed_frac"]["value"] == pytest.approx(2 / 7)


def test_check_accepts_the_repo_spec():
    assert run.check_spec(run.load_spec()) == []


@pytest.mark.parametrize(
    "mutate, problem",
    [
        (lambda s: s["workloads"][0].update(name="bad name"), "bad name"),
        (lambda s: s["workloads"].extend(copy.deepcopy(s["workloads"]) * 2), "allowed 2..8"),
        (lambda s: s["end_to_end"][1].update(bound=0.3), "not in (0, 0.25]"),
        (lambda s: s["end_to_end"].pop(0), "setup_s"),
        (lambda s: s["per_layer"].pop(), "differs from the ledger"),
        (lambda s: s["paths"].append("../elsewhere"), "relative paths inside"),
        (lambda s: s["workloads"][0].update(why="x" * 201), "why must be one line"),
    ],
)
def test_check_rejects(mutate, problem):
    spec = copy.deepcopy(run.load_spec())
    mutate(spec)
    assert any(problem in p for p in run.check_spec(spec))


def test_check_requires_each_layer_metric_to_name_what_it_moves(monkeypatch):
    monkeypatch.setitem(LAYER_METRICS, "trace.run_s", Layer("s", "lower", "wall_s", ("eslurm-16k-day",)))
    assert any("unknown end-to-end metric" in p for p in run.check_spec(run.load_spec()))
    monkeypatch.setitem(LAYER_METRICS, "trace.run_s", Layer("s", "lower", "run_s", ()))
    assert any("names no workload" in p for p in run.check_spec(run.load_spec()))
