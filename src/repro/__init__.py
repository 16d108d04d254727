"""ESLURM reproduction library.

A full reimplementation-as-simulation of the SC 2022 paper
*Towards Scalable Resource Management for Supercomputers* (Dai et al.):
a hierarchical HPC resource manager (master + satellite + slave nodes),
a failure-prediction-based broadcast tree (FP-Tree), and a
machine-learning job-runtime-estimation framework, together with the
substrates they need (discrete-event kernel, cluster model, network
fabric, schedulers, calibrated workload generators) and the benchmark
harness that regenerates every table and figure in the paper.

Quick start::

    from repro import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig(rm="eslurm", n_nodes=1024, seed=7))
    print(result.report.summary())

Top-level names are loaded lazily so that ``import repro.simkit`` does
not pull in the whole library.
"""

from __future__ import annotations

import os
import typing as t

from repro._version import __version__

# One BLAS thread unless the user chose otherwise, set before anything
# imports numpy: the SVR fit alternates numpy's and scipy's OpenBLAS,
# whose two thread pools contend (the serial quick suite ran ~3x slower
# threaded on a 2-CPU host).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

__all__ = [
    "__version__",
    "SimulationConfig",
    "SimulationResult",
    "TelemetryConfig",
    "run_simulation",
    "quick_cluster",
    "build_rm",
    "run_rm_day",
    "CentralizedRM",
    "EslurmRM",
    "RM_PROFILES",
]

_LAZY: dict[str, tuple[str, str]] = {
    "SimulationConfig": ("repro.api", "SimulationConfig"),
    "SimulationResult": ("repro.api", "SimulationResult"),
    "TelemetryConfig": ("repro.api", "TelemetryConfig"),
    "run_simulation": ("repro.api", "run_simulation"),
    "quick_cluster": ("repro.api", "quick_cluster"),
    "build_rm": ("repro.api", "build_rm"),
    "run_rm_day": ("repro.api", "run_rm_day"),
    "CentralizedRM": ("repro.rm.centralized", "CentralizedRM"),
    "EslurmRM": ("repro.rm.eslurm", "EslurmRM"),
    "RM_PROFILES": ("repro.rm.profiles", "RM_PROFILES"),
}


def __getattr__(name: str) -> t.Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
