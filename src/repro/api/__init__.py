"""The public facade: one-call construction and execution of simulations.

This module is the supported entry point for scripting the library::

    from repro import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig(rm="eslurm", n_nodes=4096, seed=7))
    print(result.report.summary())

It holds the cluster/RM helpers (``quick_cluster`` / ``build_rm`` /
``run_rm_day``) and keyword-only dataclass configs so every knob is
named at the call site.

:mod:`repro.api.requests` adds the typed request/response envelopes —
``SimulateRequest`` / ``ChaosRequest`` / ``VerifyRequest`` /
``EstimateRequest`` / ``WhatIfRequest`` with canonical digests, and
the single :func:`dispatch` entry point the CLI subcommands adapt.  All
of it is re-exported here.
"""

from __future__ import annotations

import contextlib
import math
import typing as t
from dataclasses import dataclass, field, replace

from repro.cluster.failures import FailureModel
from repro.cluster.spec import Cluster, ClusterSpec
from repro.errors import ConfigurationError
from repro.rm.base import ResourceManager, RmReport
from repro.rm.centralized import CentralizedRM
from repro.rm.eslurm import EslurmRM
from repro.rm.profiles import RM_PROFILES
from repro.simkit.core import Simulator
from repro.telemetry import facade as telemetry
from repro.telemetry.sinks import TelemetrySink
from repro.workload.synthetic import WorkloadConfig, generate_trace

DAY = 86_400.0


@dataclass(frozen=True, kw_only=True)
class TelemetryConfig:
    """How a simulation is measured.

    Args:
        enabled: install a telemetry session for the run.  Off by
            default — the null-sink posture, in which every instrumented
            hot path costs one pointer check.
        sink: span sink for the session (default: in-memory).
    """

    enabled: bool = False
    sink: TelemetrySink | None = None


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """Everything one simulated RM day needs, spelled out by name.

    Args:
        rm: RM profile name (``"slurm"``, ``"eslurm"``, ...).
        n_nodes / n_satellites: machine size.
        seed: master seed for cluster, workload, and RM randomness.
        failures: enable the stochastic failure injector.
        monitoring: start the health-monitoring subsystem.  ``None``
            follows ``failures`` (the historical coupling); pass an
            explicit bool to run failures without monitoring or
            monitoring without failures.
        n_jobs: jobs submitted across the horizon.
        horizon_s: how long to simulate.
        workload: trace-generator config (defaults to one whose job
            sizes fit the cluster).
        estimator: runtime estimator handed to the RM (``"auto"`` for
            ESLURM's framework).
        telemetry: measurement configuration for the run.
        placement: node-placement policy name — ``"first-fit"`` (the
            byte-stable default) or ``"topology"`` (hop-compact,
            alert-averse; see :mod:`repro.sched.placement`).
        malleable: enable the scheduler's elastic-job protocol (jobs
            with ``min_nodes < max_nodes`` start shrunk, grow into
            holes, and contract under pressure/failure).
    """

    rm: str = "eslurm"
    n_nodes: int = 1024
    n_satellites: int = 2
    seed: int = 0
    failures: bool = False
    monitoring: bool | None = None
    n_jobs: int = 500
    horizon_s: float = DAY
    workload: WorkloadConfig | None = None
    estimator: t.Any = None
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    placement: str = "first-fit"
    malleable: bool = False
    #: job-lifecycle engine: "fsm" (flat timer-lane fast path, default)
    #: or "generator" (the reference Process implementation).  Not part
    #: of the wire envelopes — a dispatched request always runs the default.
    lifecycle: str = "fsm"

    def __post_init__(self) -> None:
        if self.rm not in RM_PROFILES:
            raise ConfigurationError(
                f"unknown RM {self.rm!r}; choose from {sorted(RM_PROFILES)}"
            )
        from repro.rm.base import LIFECYCLE_MODES

        if self.lifecycle not in LIFECYCLE_MODES:
            raise ConfigurationError(
                f"unknown lifecycle {self.lifecycle!r}; choose from {LIFECYCLE_MODES}"
            )
        if self.n_nodes < 1 or self.n_jobs < 0 or not (
            math.isfinite(self.horizon_s) and self.horizon_s > 0
        ):
            raise ConfigurationError("n_nodes/n_jobs/horizon_s out of range")
        from repro.sched.placement import PLACEMENT_NAMES

        if self.placement not in PLACEMENT_NAMES:
            raise ConfigurationError(
                f"unknown placement {self.placement!r}; choose from {list(PLACEMENT_NAMES)}"
            )

    @property
    def monitoring_effective(self) -> bool:
        """The resolved monitoring flag (``None`` follows ``failures``)."""
        return self.failures if self.monitoring is None else self.monitoring


@dataclass(frozen=True)
class SimulationResult:
    """What :func:`run_simulation` hands back."""

    config: SimulationConfig
    report: RmReport
    #: deterministic metric snapshot (``None`` unless telemetry was on)
    telemetry: dict[str, dict[str, t.Any]] | None = None


def quick_cluster(
    n_nodes: int = 1024,
    n_satellites: int = 2,
    seed: int = 0,
    failures: bool = False,
    monitoring: bool | None = None,
) -> Cluster:
    """A ready-to-use cluster on a fresh simulator.

    Args:
        n_nodes: compute nodes.
        n_satellites: satellites provisioned (ESLURM uses them).
        seed: master seed for all randomness.
        failures: enable the stochastic failure injector.
        monitoring: start the health monitor; ``None`` follows
            ``failures`` for backwards compatibility.
    """
    sim = Simulator(seed=seed)
    model = FailureModel() if failures else FailureModel.disabled()
    spec = ClusterSpec(n_nodes=n_nodes, n_satellites=n_satellites, failure_model=model)
    cluster = spec.build(sim)
    if failures:
        cluster.failures.start()
    if failures if monitoring is None else monitoring:
        cluster.monitor.start()
    return cluster


def build_rm(
    rm_name: str,
    cluster: Cluster,
    estimator: t.Any = None,
    **kwargs: t.Any,
) -> ResourceManager:
    """Construct any of the six RMs on an existing cluster."""
    if rm_name not in RM_PROFILES:
        raise ConfigurationError(f"unknown RM {rm_name!r}; choose from {sorted(RM_PROFILES)}")
    if rm_name == "eslurm":
        return EslurmRM(cluster.sim, cluster, estimator=estimator, **kwargs)
    return CentralizedRM.from_name(rm_name, cluster.sim, cluster, estimator=estimator, **kwargs)


def prepare_rm_day(
    rm: str | type[ResourceManager],
    cluster: Cluster,
    n_jobs: int = 500,
    seed: int = 0,
    horizon_s: float = DAY,
    workload: WorkloadConfig | None = None,
    estimator: t.Any = None,
    **rm_kwargs: t.Any,
) -> tuple[ResourceManager, list[t.Any]]:
    """Build the RM and its day of workload without running anything.

    The construction half of :func:`run_rm_day`, shared with
    :mod:`repro.snapshot` so a snapshot world is built by *exactly* the
    same code path as a straight run — the prerequisite for replay-based
    restore being byte-identical.  Returns ``(manager, jobs)``; nothing
    has been scheduled on the simulator yet.
    """
    cfg = workload or WorkloadConfig(
        max_nodes=max(cluster.n_nodes // 4, 1),
        jobs_per_day=n_jobs / (horizon_s / DAY),
    )
    jobs = generate_trace(cfg, n_jobs, seed=seed, start_time=cluster.sim.now + 1.0)
    # Clip any stragglers the generator placed beyond the horizon.
    jobs = [j for j in jobs if j.submit_time < cluster.sim.now + horizon_s * 0.95]
    if isinstance(rm, str):
        manager = build_rm(rm, cluster, estimator=estimator, **rm_kwargs)
    else:
        manager = rm(cluster.sim, cluster, estimator=estimator, **rm_kwargs) if rm is EslurmRM else rm(
            cluster.sim, cluster, RM_PROFILES["slurm"], estimator=estimator, **rm_kwargs
        )
    return manager, jobs


def run_rm_day(
    rm: str | type[ResourceManager],
    cluster: Cluster,
    n_jobs: int = 500,
    seed: int = 0,
    horizon_s: float = DAY,
    workload: WorkloadConfig | None = None,
    estimator: t.Any = None,
    **rm_kwargs: t.Any,
) -> RmReport:
    """Run one RM for a day of synthetic workload and report.

    Args:
        rm: RM name (``"slurm"`` ...) or an RM class.
        cluster: from :func:`quick_cluster` (owns the simulator).
        n_jobs: jobs submitted across the horizon.
        seed: workload seed.
        horizon_s: how long to simulate.
        workload: trace generator config; defaults to a config whose
            job sizes fit the cluster.
        estimator: runtime estimator handed to the RM.
    """
    manager, jobs = prepare_rm_day(
        rm,
        cluster,
        n_jobs=n_jobs,
        seed=seed,
        horizon_s=horizon_s,
        workload=workload,
        estimator=estimator,
        **rm_kwargs,
    )
    manager.run_trace(jobs, until=cluster.sim.now + horizon_s)
    return manager.report(horizon_s=horizon_s)


def rm_kwargs_for_config(
    config: SimulationConfig, cluster: Cluster
) -> dict[str, t.Any]:
    """RM constructor kwargs implied by a :class:`SimulationConfig`.

    Shared between :func:`run_simulation` and :mod:`repro.snapshot` so
    the elastic-scheduler and placement wiring cannot drift between the
    straight-run and snapshot-world construction paths.
    """
    rm_kwargs: dict[str, t.Any] = {}
    if config.malleable:
        from repro.sched.backfill import BackfillScheduler

        rm_kwargs["scheduler"] = BackfillScheduler(malleable=True)
    if config.placement != "first-fit":
        from repro.sched.placement import build_placement

        rm_kwargs["placement"] = build_placement(
            config.placement, cluster.topology, alert_source=cluster.monitor
        )
    if config.lifecycle != "fsm":
        rm_kwargs["lifecycle"] = config.lifecycle
    return rm_kwargs


def run_simulation(
    config: SimulationConfig | None = None, **overrides: t.Any
) -> SimulationResult:
    """Build a cluster, run one RM day, and collect the results.

    Args:
        config: the full configuration; defaults to
            ``SimulationConfig()``.
        overrides: field overrides applied on top of ``config``
            (``run_simulation(rm="slurm", n_nodes=4096)``).
    """
    if config is None:
        config = SimulationConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    scope: t.ContextManager[t.Any] = (
        telemetry.session(config.telemetry.sink)
        if config.telemetry.enabled
        else contextlib.nullcontext()
    )
    with scope as tel:
        cluster = quick_cluster(
            n_nodes=config.n_nodes,
            n_satellites=config.n_satellites,
            seed=config.seed,
            failures=config.failures,
            monitoring=config.monitoring,
        )
        rm_kwargs = rm_kwargs_for_config(config, cluster)
        report = run_rm_day(
            config.rm,
            cluster,
            n_jobs=config.n_jobs,
            seed=config.seed,
            horizon_s=config.horizon_s,
            workload=config.workload,
            estimator=config.estimator,
            **rm_kwargs,
        )
        snapshot = tel.snapshot() if tel is not None else None
    return SimulationResult(config=config, report=report, telemetry=snapshot)


# The envelope layer builds on the facade above; imported last so the
# names it needs (SimulationConfig, run_simulation...) already exist.
from repro.api.requests import (  # noqa: E402
    REQUEST_KINDS,
    REQUEST_TYPES,
    ChaosRequest,
    ChaosResponse,
    EstimateRequest,
    EstimateResponse,
    Request,
    Response,
    SimulateRequest,
    SimulateResponse,
    VerifyRequest,
    VerifyResponse,
    WhatIfRequest,
    WhatIfResponse,
    canonical_json,
    dispatch,
    request_from_wire,
)
