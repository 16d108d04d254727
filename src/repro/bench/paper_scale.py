"""The paper-scale anchor file (``benchmarks/BENCH_paper_scale.json``).

One checked-in file recording, per paper-scale tier (1K to 131K nodes,
10K jobs), the deterministic anchors at the recording seed: the event
count and the peak event-heap depth.  A mismatch means behaviour
changed, not performance; the tier-1 tests re-run the seconds-long
tiers against it.  Speed is judged by ``benchmarks/e2e`` alone, so no
wall time is recorded here.  ``repro bench baseline`` re-records the
file deliberately.
"""

from __future__ import annotations

import json
import typing as t

from repro.bench.runner import BenchResult

BASELINE_SCHEMA = "repro-bench-paper-scale/1"

#: repo-relative location of the checked-in anchor file
BASELINE_PATH = "benchmarks/BENCH_paper_scale.json"


def build_baseline(results: t.Sequence[BenchResult]) -> dict[str, t.Any]:
    """Anchor payload from freshly-run tier results."""
    tiers: dict[str, t.Any] = {}
    for result in results:
        spec = result.scenario
        tiers[spec.name] = {
            "seed": result.seed,
            "n_nodes": spec.n_nodes,
            "n_jobs": spec.n_jobs,
            "horizon_s": spec.horizon_s,
            "events": result.payload["events"],
            "events_per_sim_s": result.payload["events_per_sim_s"],
            "peak_heap_depth": result.payload["peak_heap_depth"],
        }
    return {"schema": BASELINE_SCHEMA, "tiers": tiers}


def dump_baseline(baseline: dict[str, t.Any]) -> str:
    return json.dumps(baseline, sort_keys=True, indent=2) + "\n"
