"""Deterministic multiprocess fan-out for embarrassingly parallel sweeps.

Every sweep surface in this repository — chaos campaigns, ``repro
verify`` seed sweeps, the experiment grids — is a
list of fully independent seeded simulations.  This package turns such
a list into *task cells* ``(kind, spec, seed)`` executed by warm
spawn-based worker processes, then merges the results back **keyed by
task id**, so the merged output is byte-identical to the serial path
regardless of worker count or completion order.

The three modules:

* :mod:`repro.parallel.pool` — the engine: :func:`run_tasks` executes a
  task list inline (``jobs=1``, the serial path) or on a warm worker
  pool (``jobs>1``) with per-cell crash containment and retry-once.
* :mod:`repro.parallel.tasks` — the fixed table mapping a task kind
  (``"chaos"``, ``"verify"``, ``"experiment"``) to the
  handler workers import and execute.
* :mod:`repro.parallel.merge` — the order-free counter-map sum used to
  aggregate per-cell counts.
"""

from repro.parallel.merge import merge_counter_maps
from repro.parallel.pool import (
    Task,
    TaskResult,
    SweepError,
    resolve_jobs,
    run_tasks,
)
from repro.parallel.tasks import resolve_kind

__all__ = [
    "SweepError",
    "Task",
    "TaskResult",
    "merge_counter_maps",
    "resolve_jobs",
    "resolve_kind",
    "run_tasks",
]
