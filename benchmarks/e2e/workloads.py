"""The benchmark's workloads and the one repetition every measurement runs.

A repetition drives one seeded RM day through the public facade only:
``quick_cluster`` + ``prepare_rm_day`` + ``run_trace(until=None)`` is
the set-up, then the horizon runs as :data:`SLICES` equal
``sim.run(until=...)`` calls, each timed on its own.  Nothing is added
to ``src/``; the per-layer ledger (:mod:`benchmarks.e2e.ledger`) wraps
public entry points from outside.

Three choices keep the numbers steady on a small shared host:

* **The job trace is fixed** (:data:`TRACE_SEED`, the paper tiers'
  day); the seed drives the machine — failures, monitoring alerts,
  submit failures, crashes and the estimator's k-means start.  A trace
  drawn per seed changes what a day costs by up to 2.5x: the paper days
  are about ten times overloaded, and the heavy-tailed job mix decides
  how many jobs get through (16K day, seeds 1-8: 2.5-6.5 s).
* **Each timed repetition is another machine** (:func:`machine_seed`),
  so a run's median pools several failure and alert draws.  One 131K
  day rebuilds its heartbeat trees once per alert or failure, a Poisson
  count of about 40 in 2 h; a single draw spread its cost by 15-20 %.
* **Times are host-speed normalized.**  A fixed pure-Python kernel is
  timed before the set-up and at every slice boundary; each span is
  scaled by ``REFERENCE_S / kernel time`` around it, giving seconds on a
  host where the kernel takes :data:`REFERENCE_S`.  On a two-vCPU host
  whose core speed wanders +-15 % within seconds, this cut the spread of
  one day's run time from +-17 % to +-5 %.  The raw wall times are kept
  next to the normalized ones.

The simulator is imported inside the functions, so this module loads
without ``src`` on the path (``check`` needs only the table below).
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import typing as t
from dataclasses import asdict, dataclass, replace
from time import perf_counter

DAY = 86_400.0

#: equal parts of the horizon each repetition is timed in
SLICES = 24

#: timed repetitions per child at the least: 5 x 24 slices leave 12
#: samples beyond the slice p90, so the p90 resolves
MIN_REPS = 5

#: seed of every workload's job trace (seed 0 of the paper tiers, so
#: machine seed 0 is exactly the ``BENCH_paper_scale`` tier)
TRACE_SEED = 0

#: nominal time of :func:`reference_kernel`; normalized seconds are
#: seconds on a host where the kernel takes this long
REFERENCE_S = 0.010

#: name -> ``BenchScenario`` fields.  Why each exists is in
#: ``BENCHMARK.json``; every workload runs failures and monitoring.
WORKLOADS: dict[str, dict[str, t.Any]] = {
    # = paper-16384
    "eslurm-16k-day": dict(
        rm="eslurm", n_nodes=16_384, n_satellites=8, failures=True,
        n_jobs=10_000, horizon_s=DAY,
    ),
    # the submit rate of a 10K-job day over 2 h, BenchScenario pacing;
    # 6 h ran 10 s a repetition, too long for seven per run
    "eslurm-131k-2h": dict(
        rm="eslurm", n_nodes=131_072, n_satellites=64, failures=True,
        n_jobs=833, horizon_s=DAY / 12,
    ),
    # = paper-1024-malleable
    "eslurm-1k-malleable": dict(
        rm="eslurm", n_nodes=1024, n_satellites=2, failures=True,
        n_jobs=10_000, horizon_s=DAY, malleable_fraction=0.5,
    ),
    # centralized Slurm; 32 satellite nodes keep the machine identical
    # to paper-65536 (Slurm leaves them idle)
    "slurm-65k-day": dict(
        rm="slurm", n_nodes=65_536, n_satellites=32, failures=True,
        n_jobs=10_000, horizon_s=DAY,
    ),
}


def machine_seed(seed: int, rep: int) -> int:
    """Seed of the ``rep``-th timed repetition's machine for ``--seed``;
    runs with different seeds never share a machine."""
    return seed * 1000 + rep


def scenario(name: str) -> t.Any:
    """The workload's :class:`repro.bench.scenarios.BenchScenario`."""
    from repro.bench.scenarios import BenchScenario

    return BenchScenario(name=name, **WORKLOADS[name])


def simulation_config(spec: t.Any, seed: int) -> t.Any:
    """The scenario's config with telemetry off (the path users run)."""
    from repro.api import TelemetryConfig

    return replace(spec.simulation_config(seed), telemetry=TelemetryConfig(enabled=False))


def report_digest(report: t.Any) -> str:
    """sha256 of the canonical ``asdict(RmReport)``."""
    blob = json.dumps(asdict(report), sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def reference_kernel() -> float:
    """Host seconds of a fixed heap-and-dict loop (the host-speed probe).

    Only ints go into the containers: ints are not tracked by the cycle
    collector, so the probe can never trigger a collection over the
    simulated world sitting in memory and time that instead."""
    t0 = perf_counter()
    heap: list[int] = []
    counts = dict.fromkeys(range(512), 0)
    for i in range(12_000):
        heapq.heappush(heap, (i * 7919) % 1009 * 16_384 + i)
        counts[i & 511] += 1
    while heap:
        heapq.heappop(heap)
    return perf_counter() - t0


@dataclass
class Rep:
    """Host times and simulated outcome of one repetition."""

    setup_wall_s: float
    #: ``quick_cluster`` alone (the rest of the set-up builds trace + RM)
    cluster_wall_s: float
    slices_wall: list[float]
    #: reference-kernel times: before the set-up, then at each of the
    #: ``SLICES + 1`` slice boundaries
    probes: list[float]
    digest: str
    events: int

    @property
    def setup_scale(self) -> float:
        return 2 * REFERENCE_S / (self.probes[0] + self.probes[1])

    @property
    def setup_s(self) -> float:
        return self.setup_wall_s * self.setup_scale

    @property
    def slices(self) -> list[float]:
        p = self.probes
        return [w * 2 * REFERENCE_S / (p[i + 1] + p[i + 2]) for i, w in enumerate(self.slices_wall)]

    @property
    def run_s(self) -> float:
        return sum(self.slices)

    @property
    def run_wall_s(self) -> float:
        return sum(self.slices_wall)


def run_rep(spec: t.Any, seed: int, on_run_start: t.Callable[[], None] | None = None) -> Rep:
    """Build and run one day on the machine of ``seed``; ``on_run_start``
    fires between the set-up and the first slice (the ledger resets its
    counters there)."""
    from repro.api import prepare_rm_day, quick_cluster, rm_kwargs_for_config

    config = simulation_config(spec, seed)
    gc.collect()  # the previous repetition's world must not be freed in here
    probes = [reference_kernel()]
    t0 = perf_counter()
    cluster = quick_cluster(
        n_nodes=config.n_nodes,
        n_satellites=config.n_satellites,
        seed=config.seed,
        failures=config.failures,
        monitoring=config.monitoring,
    )
    t1 = perf_counter()
    rm, jobs = prepare_rm_day(
        config.rm,
        cluster,
        n_jobs=config.n_jobs,
        seed=TRACE_SEED,
        horizon_s=config.horizon_s,
        workload=config.workload,
        estimator=config.estimator,
        **rm_kwargs_for_config(config, cluster),
    )
    rm.run_trace(jobs, until=None)
    t2 = perf_counter()
    probes.append(reference_kernel())
    sim = cluster.sim
    start = sim.now
    if on_run_start is not None:
        on_run_start()
    slices = []
    for i in range(1, SLICES + 1):
        # the last boundary is exactly the one-shot deadline
        until = start + config.horizon_s if i == SLICES else start + config.horizon_s * i / SLICES
        s = perf_counter()
        sim.run(until=until)
        slices.append(perf_counter() - s)
        probes.append(reference_kernel())
    report = rm.report(horizon_s=config.horizon_s)
    return Rep(
        setup_wall_s=t2 - t0,
        cluster_wall_s=t1 - t0,
        slices_wall=slices,
        probes=probes,
        digest=report_digest(report),
        events=sim.events_processed,
    )
