PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast test-slow test-chaos chaos-smoke test-bench bench-smoke bench-e2e-check bench-e2e-smoke bench-e2e-gate lifecycle-smoke verify-smoke sweep-smoke malleable-smoke snapshot-smoke lint-imports

## Full tier-1 suite (the CI gate).
test:
	$(PYTHON) -m pytest -x -q

## Tier-1 minus the slow seed sweeps and golden re-runs (CI's quick lane).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## Everything, including the 25+-seed property sweeps.
test-slow:
	$(PYTHON) -m pytest -x -q --slow

## Chaos suite only (fast invariant/property sweep).
test-chaos:
	$(PYTHON) -m pytest -q tests/chaos

## Smoke: the acceptance scenario must pass with zero violations,
## and the same seed twice must produce byte-identical reports.
chaos-smoke:
	$(PYTHON) -m pytest -q tests/chaos
	$(PYTHON) -m repro.cli chaos run failure-storm flapping-node --seed 7 -j 2
	$(PYTHON) -c "from repro.chaos import run_scenario; \
	a = run_scenario('failure-storm', seed=7).to_text(); \
	b = run_scenario('failure-storm', seed=7).to_text(); \
	assert a == b, 'chaos report is not seed-deterministic'; \
	print('deterministic-seed check: OK')"

## Bench + telemetry suites only.
test-bench:
	$(PYTHON) -m pytest -q tests/bench tests/telemetry

## Smoke: a -j 1/-j 2 sweep of the 1K pair must produce schema-valid
## payloads with byte-identical digests at both levels (the sweep exits
## nonzero on any mismatch), and the same seed twice must produce
## byte-identical payloads.  Last, the pinned `repro simulate` day runs
## in two fresh interpreters with different string-hash seeds and the
## outputs must `cmp` equal: the verb users run had no cross-process
## determinism check (only `estimate`'s digest test had one), and an
## iteration over a set or dict of strings would show up here first.
bench-smoke:
	$(PYTHON) -m pytest -q tests/bench tests/telemetry
	$(PYTHON) -m repro.cli bench sweep slurm-1024 eslurm-1024 --jobs-levels 1,2 --out .bench-smoke/BENCH_sweep.json
	$(PYTHON) -c "from repro.bench import run_bench; \
	a = run_bench('slurm-1024', seed=0).to_json(); \
	b = run_bench('slurm-1024', seed=0).to_json(); \
	assert a == b, 'bench payload is not seed-deterministic'; \
	print('deterministic-seed check: OK')"
	PYTHONHASHSEED=1 $(PYTHON) -m repro.cli simulate run --json --n-nodes 256 --n-jobs 100 --horizon-s 1000.37 > .bench-smoke/simulate-1.json
	PYTHONHASHSEED=2 $(PYTHON) -m repro.cli simulate run --json --n-nodes 256 --n-jobs 100 --horizon-s 1000.37 > .bench-smoke/simulate-2.json
	cmp .bench-smoke/simulate-1.json .bench-smoke/simulate-2.json
	rm -rf .bench-smoke

## The repo benchmark's own checks: BENCHMARK.json must be a valid
## spec, and the benchmarks/e2e harness tests (on a tiny scenario) must
## pass.  The timed four-workload run is `python3 benchmarks/e2e/run.py`.
bench-e2e-check:
	$(PYTHON) -m benchmarks.e2e check
	$(PYTHON) -m pytest -q benchmarks/e2e

## One short traced run each of the paper's 16K ESLURM day, the
## broadcast-heavy 131K workload, the centralized 65K Slurm day and the
## 1K malleable day: exits nonzero when any repetition's RmReport
## digest leaves expected.json.  The first mixes every layer (the
## estimator learns from the synthetic trace's repeats), the second
## drives the ESLURM heartbeat share record, the third the allocator
## path, the fourth the malleable resize pass.  E2E_COUNTS then checks
## the run's seed-0 decision counts on its last JSON line: the 16K run
## must report estimate.calls 9202 and estimate.trainings 7, the 1K
## malleable run 9349 and 9, and the three ESLURM runs their
## fptree.construct.calls and fptree.memo.lookups.  An estimator or
## FP-Tree placement speed change that moves one of them changed a
## decision.
E2E_COUNTS = $(PYTHON) -c "import json, sys; out = sys.stdin.read(); print(out, end=''); \
	r = json.loads(out.splitlines()[-1]); want = dict(a.split('=') for a in sys.argv[1:]); \
	got = {k: r['metrics'][k]['value'] for k in want}; assert r['correct'], 'a repetition failed'; \
	assert got == {k: float(v) for k, v in want.items()}, got"

bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --workload eslurm-16k-day --seed 0 --seconds 1 --trace 1 | $(E2E_COUNTS) \
	estimate.calls=9202 estimate.trainings=7 fptree.construct.calls=3046 fptree.memo.lookups=233
	$(PYTHON) benchmarks/e2e/run.py --workload eslurm-131k-2h --seed 0 --seconds 1 --trace 1 | $(E2E_COUNTS) \
	fptree.construct.calls=1361 fptree.memo.lookups=42
	$(PYTHON) benchmarks/e2e/run.py --workload slurm-65k-day --seed 0 --seconds 1 --trace 1
	$(PYTHON) benchmarks/e2e/run.py --workload eslurm-1k-malleable --seed 0 --seconds 1 --trace 1 | $(E2E_COUNTS) \
	estimate.calls=9349 estimate.trainings=9 fptree.construct.calls=1164 fptree.memo.lookups=1

## The perf gate: one traced short run of all four workloads, judged
## by BENCHMARK.json's end-to-end bounds against recording 0 of
## benchmarks/e2e/baseline.json (recorded traced, so like for like).
## Exits nonzero when a repetition's digest leaves expected.json or
## any end-to-end metric is worse than its bound.
bench-e2e-gate:
	$(PYTHON) -m benchmarks.e2e --seed 0 --seconds 1 --trace 1 --out .e2e-gate.json
	$(PYTHON) -c "import json; b = json.load(open('benchmarks/e2e/baseline.json')); \
	open('.e2e-gate-baseline.json', 'w').write(json.dumps(b['recordings'][0]))"
	$(PYTHON) -m benchmarks.e2e compare .e2e-gate-baseline.json .e2e-gate.json
	rm -f .e2e-gate.json .e2e-gate-baseline.json

## Lifecycle-kernel smoke: the FSM fast path must be observably
## indistinguishable from the generator reference — unit tests for the
## timer lane and the FSM walk, the full equivalence scenario matrix,
## then the oracle relation across a -j 2 seed sweep.
lifecycle-smoke:
	$(PYTHON) -m pytest -q tests/simkit/test_timer.py tests/rm/test_lifecycle.py tests/rm/test_lifecycle_equivalence.py
	$(PYTHON) -m repro.cli verify --relation lifecycle-equivalence --seeds 2 -j 2

## Smoke: every oracle layer must hold on the current tree, and the
## golden digests must be reproducible byte-for-byte.
verify-smoke:
	$(PYTHON) -m pytest -q tests/oracle -m "not slow"
	$(PYTHON) -m repro.cli verify --seed 42
	$(PYTHON) -c "from repro.oracle import GOLDEN_SCENARIOS; \
	from repro.oracle.golden import dump_canonical; \
	sc = GOLDEN_SCENARIOS[0]; \
	assert dump_canonical(sc.record()) == dump_canonical(sc.record()), \
	'golden payload is not seed-deterministic'; \
	print('deterministic-digest check: OK')"

## Smoke: the sweep engine must be byte-deterministic — the same small
## matrix at -j 1 and -j 2 must hash to the same payload digest (the
## sweep exits nonzero on a mismatch), and a poisoned cell must be
## contained (nonzero exit, healthy cells done).
sweep-smoke:
	$(PYTHON) -m pytest -q tests/parallel
	$(PYTHON) -m repro.cli bench sweep slurm-1024 eslurm-1024 --jobs-levels 1,2 --out .sweep-smoke/BENCH_sweep.json
	@echo "sweep determinism check: OK (-j 1 == -j 2, byte for byte)"
	rm -rf .sweep-smoke

## Smoke: the elastic/placement layer end to end — the shrink-storm
## chaos scenario must run violation-free, and the two differential
## relations that pin it down must hold across a parallel seed sweep.
malleable-smoke:
	$(PYTHON) -m pytest -q tests/sched/test_malleable.py tests/sched/test_placement.py tests/rm/test_malleable_engine.py
	$(PYTHON) -m repro.cli chaos run malleable-shrink-storm topology-storm --seed 7 -j 2
	$(PYTHON) -m repro.cli verify --relation malleable-throughput --relation topology-fragmentation --seeds 2 -j 2

## Smoke: the incremental-simulation layer end to end — the snapshot
## suite must pass, resume-from-snapshot must stay byte-identical to
## the straight run across a parallel seed sweep, and what-if queries
## (a probe job, then a node failure) must answer through the CLI.
snapshot-smoke:
	$(PYTHON) -m pytest -q tests/snapshot -m "not slow"
	$(PYTHON) -m repro.cli verify --relation snapshot-equivalence --seeds 2 -j 2
	$(PYTHON) -m repro.cli whatif run --rm eslurm --n-nodes 32 --n-jobs 20 --seed 7 --at-s 43200 --perturb submit-job --job-nodes 4
	$(PYTHON) -m repro.cli whatif run --rm eslurm --n-nodes 32 --n-jobs 20 --seed 7 --at-s 43200 --perturb fail-node --node-id 0 --duration-s 3600

## Import every top-level package (and the CLI) first, each in a fresh
## interpreter: an import cycle only fails when its package loads first.
## None of them may load scipy at import: only a model fit imports it.
REPRO_MODULES := $(sort $(notdir $(patsubst %/__init__.py,%,$(wildcard src/repro/*/__init__.py)))) cli

lint-imports:
	@for mod in $(REPRO_MODULES); do \
		$(PYTHON) -c "import sys, repro.$$mod; assert 'scipy' not in sys.modules, 'repro.$$mod loads scipy'" \
			|| { echo "import repro.$$mod failed"; exit 1; }; \
		echo "import repro.$$mod: OK"; \
	done
