"""Performance-benchmark harness: fixed scenario matrix over the RMs.

``repro bench run --all --seed 0`` executes every scenario in
:mod:`repro.bench.scenarios` and writes one deterministic
``BENCH_<name>.json`` per scenario (schema in :mod:`repro.bench.schema`);
``repro bench report`` renders the files as a text or markdown table.
"""

from repro.bench.paper_scale import (
    BASELINE_PATH,
    build_baseline,
    dump_baseline,
    load_baseline,
)
from repro.bench.report import render_markdown, render_text
from repro.bench.runner import (
    BenchResult,
    MatrixSweep,
    load_bench_file,
    run_bench,
    run_matrix,
    run_matrix_sweep,
    write_bench_file,
)
from repro.bench.sweep import (
    SWEEP_PATH,
    SWEEP_SCHEMA,
    dump_sweep,
    load_sweep,
    render_sweep,
    run_sweep_baseline,
    sweep_digest,
)
from repro.bench.whatif import (
    WHATIF_PATH,
    WHATIF_SCHEMA,
    dump_whatif,
    load_whatif,
    render_whatif,
    run_whatif_bench,
)
from repro.bench.scenarios import (
    PAPER_SCALE,
    SCENARIOS,
    SMOKE_SCENARIO,
    BenchScenario,
    get_scenario,
)
from repro.bench.schema import SCHEMA, is_deterministic_metric, validate_payload

__all__ = [
    "BASELINE_PATH",
    "PAPER_SCALE",
    "SCENARIOS",
    "SMOKE_SCENARIO",
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
    "is_deterministic_metric",
    "load_baseline",
    "load_bench_file",
    "load_sweep",
    "load_whatif",
    "render_markdown",
    "render_sweep",
    "render_text",
    "render_whatif",
    "run_bench",
    "run_matrix",
    "run_matrix_sweep",
    "run_sweep_baseline",
    "run_whatif_bench",
    "sweep_digest",
    "validate_payload",
    "write_bench_file",
]
