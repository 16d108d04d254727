"""Pins the synthetic traces byte for byte.

The generator's draw order is part of its contract: the repeat and
overestimation statistics the estimator learns from (paper Fig. 5), the
goldens and the benchmark digests all sit on one exact trace per seed.
The calibration tests in ``test_synthetic.py`` check statistics only, so
a change that reorders, adds or drops one draw passes them while moving
every later job.  These digests were recorded before the generator lost
its per-draw numpy overhead and must never be re-recorded for a speed
change.
"""

import hashlib

import pytest

from repro.bench.scenarios import BenchScenario
from repro.workload import WorkloadConfig, generate_trace

DAY = 86_400.0

#: the fields the generator sets, hashed as ``repr`` (exact floats)
FIELDS = (
    "job_id",
    "name",
    "user",
    "n_nodes",
    "runtime_s",
    "user_estimate_s",
    "submit_time",
    "cores_per_node",
    "min_nodes",
    "max_nodes",
)


def trace_digest(jobs) -> str:
    """sha256 over every job's fields, in trace order."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(repr(tuple(getattr(job, f) for f in FIELDS)).encode())
    return h.hexdigest()


def bench_workload(n_nodes: int, n_jobs: int, horizon_s: float = DAY, malleable_fraction: float = 0.0):
    """The workload of a ``benchmarks/e2e`` scenario (only these fields
    reach the trace)."""
    spec = BenchScenario(
        name="pin", rm="eslurm", n_nodes=n_nodes, n_satellites=2, failures=True,
        n_jobs=n_jobs, horizon_s=horizon_s, malleable_fraction=malleable_fraction,
    )
    return spec.workload()


#: name -> (config, n_jobs, seed, digest)
PINS = {
    "eslurm-16k-day": (
        bench_workload(16_384, 10_000), 10_000, 0,
        "f7af50605ca95044ddeff9cc39ba2b8e3451a2224ef0c1e70bfee89bf45a7166",
    ),
    "slurm-65k-day": (
        bench_workload(65_536, 10_000), 10_000, 0,
        "e5d59896a7f66b10d2e17ceed14848e4afeefec8d258a30185d6e4fb26f8353c",
    ),
    "eslurm-1k-malleable": (
        bench_workload(1024, 10_000, malleable_fraction=0.5), 10_000, 0,
        "9418821bec8dca2d6cb8c4779c6727d7d4e83bdb4d9bd08db842eb429bb709ae",
    ),
    "eslurm-131k-2h": (
        bench_workload(131_072, 833, horizon_s=DAY / 12), 833, 0,
        "66c385e4282aaa2ec42deee77b77f5e5ebeb1092a1664a320a01ee724cd68616",
    ),
    "tianhe2a": (
        WorkloadConfig.tianhe2a(), 4000, 0,
        "0a2a1d939e23a10632bc38910f29fd17b4ca45dd0f29fcbdc206b179c473b715",
    ),
    # drifting users: the daily swaps draw through AppPool.sample
    "ng_tianhe": (
        WorkloadConfig.ng_tianhe(), 2000, 0,
        "e0d82043c4b13e1b85f3c91fd436c103038698199bffca8a323f2edcc7a37a00",
    ),
    "ng_tianhe-seed7": (
        WorkloadConfig.ng_tianhe(), 2000, 7,
        "4aebd3c4e799a9de381f259a95a8a2510b7aa2f899947bec9956ab1ad347eca9",
    ),
}


@pytest.mark.parametrize("name", list(PINS))
def test_trace_is_pinned(name):
    config, n_jobs, seed, digest = PINS[name]
    jobs = generate_trace(config, n_jobs, seed=seed, start_time=1.0)
    assert len(jobs) == n_jobs
    assert trace_digest(jobs) == digest
