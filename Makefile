PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast test-slow test-chaos chaos-smoke test-bench bench-smoke bench-e2e-check bench-e2e-smoke bench-e2e-gate verify-smoke sweep-smoke malleable-smoke paper-orderings-smoke examples-smoke census lint-imports

## Full tier-1 suite (the CI gate).
test:
	$(PYTHON) -m pytest -x -q

## Tier-1 minus the slow seed sweeps (CI's quick lane; the golden table runs).
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

## Smoke: the pinned `repro simulate` day and a 500-job `repro
## estimate` run each run in two fresh interpreters with different
## string-hash seeds and the outputs must `cmp` equal: an iteration
## over a set or dict of strings would show up here first (the
## estimator hashes job names with zlib.crc32, and its name routes come
## from dict and Counter order).
bench-smoke:
	mkdir -p .bench-smoke
	PYTHONHASHSEED=1 $(PYTHON) -m repro.cli simulate run --json --n-nodes 256 --n-jobs 100 --horizon-s 1000.37 > .bench-smoke/simulate-1.json
	PYTHONHASHSEED=2 $(PYTHON) -m repro.cli simulate run --json --n-nodes 256 --n-jobs 100 --horizon-s 1000.37 > .bench-smoke/simulate-2.json
	cmp .bench-smoke/simulate-1.json .bench-smoke/simulate-2.json
	PYTHONHASHSEED=1 $(PYTHON) -m repro.cli estimate run --json --n-history 500 > .bench-smoke/estimate-1.json
	PYTHONHASHSEED=2 $(PYTHON) -m repro.cli estimate run --json --n-history 500 > .bench-smoke/estimate-2.json
	cmp .bench-smoke/estimate-1.json .bench-smoke/estimate-2.json
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
## drives satellite relays and per-daemon accounting (64 satellites:
## heartbeats charge CPU and sockets, launches relay through the
## FP-Tree), the third the allocator path, the fourth the malleable
## resize pass.  E2E_COUNTS then checks
## the run's seed-0 decision counts on its last JSON line: the 16K run
## must report estimate.calls 9202 and estimate.trainings 7, the 1K
## malleable run 9349 and 9, and the three ESLURM runs their
## fptree.construct.calls and fptree.memo.lookups; the 65K Slurm run
## must report sched.plan.calls 8262 and sched.plan.decisions 667, and
## the 16K and 1K malleable runs 423 and 502 decisions.  Every run also
## checks network.tree.calls, the number of tree broadcasts evaluated
## (16K 1210, 131K 130, 65K 1184, 1K malleable 1942), and
## rm.lifecycle.calls, the job launches and job timers run (16K 1578,
## 131K 156, 65K 2439, 1K malleable 1950); the 1K malleable run also
## checks sched.resize.calls 12702, its elastic passes.  An estimator,
## FP-Tree placement, scheduler, allocation or broadcast speed change
## that moves one of them changed a decision or the work done.
E2E_COUNTS = $(PYTHON) -c "import json, sys; out = sys.stdin.read(); print(out, end=''); \
	r = json.loads(out.splitlines()[-1]); want = dict(a.split('=') for a in sys.argv[1:]); \
	got = {k: r['metrics'][k]['value'] for k in want}; assert r['correct'], 'a repetition failed'; \
	assert got == {k: float(v) for k, v in want.items()}, got"

bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --workload eslurm-16k-day --seed 0 --seconds 1 --trace 1 | $(E2E_COUNTS) \
	estimate.calls=9202 estimate.trainings=7 fptree.construct.calls=2941 fptree.memo.lookups=146 \
	sched.plan.decisions=423 network.tree.calls=1210 rm.lifecycle.calls=1578
	$(PYTHON) benchmarks/e2e/run.py --workload eslurm-131k-2h --seed 0 --seconds 1 --trace 1 | $(E2E_COUNTS) \
	fptree.construct.calls=1256 fptree.memo.lookups=4 network.tree.calls=130 rm.lifecycle.calls=156
	$(PYTHON) benchmarks/e2e/run.py --workload slurm-65k-day --seed 0 --seconds 1 --trace 1 | $(E2E_COUNTS) \
	sched.plan.calls=8262 sched.plan.decisions=667 network.tree.calls=1184 rm.lifecycle.calls=2439
	$(PYTHON) benchmarks/e2e/run.py --workload eslurm-1k-malleable --seed 0 --seconds 1 --trace 1 | $(E2E_COUNTS) \
	estimate.calls=9349 estimate.trainings=9 fptree.construct.calls=1161 fptree.memo.lookups=0 \
	sched.plan.decisions=502 network.tree.calls=1942 rm.lifecycle.calls=1950 \
	sched.resize.calls=12702

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

## Smoke: every oracle layer must hold on the current tree, and the
## golden digests must be reproducible byte-for-byte.
verify-smoke:
	$(PYTHON) -m pytest -q tests/oracle -m "not slow"
	$(PYTHON) -m repro.cli verify --seed 42
	$(PYTHON) -c "from repro.oracle.golden import GOLDEN_SCENARIOS, dump_canonical, record; \
	cfg = GOLDEN_SCENARIOS['slurm-base']; \
	assert dump_canonical(record('slurm-base', cfg)) == dump_canonical(record('slurm-base', cfg)), \
	'golden payload is not seed-deterministic'; \
	print('deterministic-digest check: OK')"

## Smoke: the sweep engine must be byte-deterministic — the same chaos
## campaign grid at -j 1 and -j 2 must print the same JSON report,
## byte for byte — and the pool suite (crash containment, retry-once)
## must pass.
sweep-smoke:
	$(PYTHON) -m pytest -q tests/parallel
	mkdir -p .sweep-smoke
	$(PYTHON) -m repro.cli chaos run flapping-node --seeds 2 --json -j 1 > .sweep-smoke/campaign-j1.json
	$(PYTHON) -m repro.cli chaos run flapping-node --seeds 2 --json -j 2 > .sweep-smoke/campaign-j2.json
	cmp .sweep-smoke/campaign-j1.json .sweep-smoke/campaign-j2.json
	@echo "sweep determinism check: OK (-j 1 == -j 2, byte for byte)"
	rm -rf .sweep-smoke

## Smoke: the elastic/placement layer end to end — the shrink-storm
## chaos scenario must run violation-free, and the two differential
## relations that pin it down must hold across a parallel seed sweep.
malleable-smoke:
	$(PYTHON) -m pytest -q tests/sched/test_malleable.py tests/sched/test_placement.py tests/rm/test_malleable_engine.py
	$(PYTHON) -m repro.cli chaos run malleable-shrink-storm topology-storm --seed 7 -j 2
	$(PYTHON) -m repro.cli verify --relation malleable-throughput --relation topology-fragmentation --seeds 2 -j 2

## Smoke: the paper's orderings of master and satellite CPU, memory
## and sockets (Fig. 7, Fig. 9 and the motivation study), asserted by
## the quick-mode bench files on the daemon accounting (~5 s).
paper-orderings-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_fig7.py benchmarks/bench_fig9.py benchmarks/bench_motivation.py --benchmark-disable

## Smoke: run each of the five examples/ scripts (~16 s on a 2-CPU
## host, 13 s of it runtime_estimation.py).  Some library paths are
## reached only from them (the packages' lazy __getattr__,
## EslurmRM.fptree_stats, ConstructionStats.leaf_placement_ratio).
EXAMPLES := quickstart failure_storm fptree_broadcast runtime_estimation scaling_study

examples-smoke:
	@for ex in $(EXAMPLES); do \
		$(PYTHON) examples/$$ex.py > /dev/null || { echo "examples/$$ex.py failed"; exit 1; }; \
		echo "examples/$$ex.py: OK"; \
	done

## The consumer census: run every consumer (CLI verbs, oracles, chaos,
## e2e workloads, examples) under a call hook and print the src/repro
## functions none of them called, with line counts.  Not a CI step:
## about 10 CPU-minutes on a 2-CPU host.
census:
	$(PYTHON) benchmarks/census.py

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
