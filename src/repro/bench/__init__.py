"""Performance-benchmark harness: fixed scenario matrix over the RMs.

:mod:`repro.bench.scenarios` holds the matrix and the paper-scale
tiers; :func:`run_bench` runs one scenario into a deterministic payload
(schema in :mod:`repro.bench.schema`).  Three checked-in anchor files
come from it, each recorded by one ``repro bench`` verb and re-run by
the tier-1 tests: ``baseline`` (``BENCH_paper_scale.json``), ``sweep``
(``BENCH_sweep.json``) and ``whatif`` (``BENCH_whatif.json``).  Speed
is judged by ``benchmarks/e2e`` alone.
"""

from repro.bench.paper_scale import BASELINE_PATH, build_baseline, dump_baseline
from repro.bench.runner import BenchResult, MatrixSweep, run_bench, run_matrix_sweep
from repro.bench.sweep import (
    SWEEP_PATH,
    SWEEP_SCHEMA,
    dump_sweep,
    render_sweep,
    run_sweep_baseline,
    sweep_digest,
)
from repro.bench.whatif import (
    WHATIF_PATH,
    WHATIF_SCHEMA,
    dump_whatif,
    render_whatif,
    run_whatif_bench,
)
from repro.bench.scenarios import PAPER_SCALE, SCENARIOS, BenchScenario, get_scenario
from repro.bench.schema import SCHEMA, validate_payload

__all__ = [
    "BASELINE_PATH",
    "PAPER_SCALE",
    "SCENARIOS",
    "SCHEMA",
    "SWEEP_PATH",
    "SWEEP_SCHEMA",
    "WHATIF_PATH",
    "WHATIF_SCHEMA",
    "BenchResult",
    "BenchScenario",
    "MatrixSweep",
    "build_baseline",
    "dump_baseline",
    "dump_sweep",
    "dump_whatif",
    "get_scenario",
    "render_sweep",
    "render_whatif",
    "run_bench",
    "run_matrix_sweep",
    "run_sweep_baseline",
    "run_whatif_bench",
    "sweep_digest",
    "validate_payload",
]
