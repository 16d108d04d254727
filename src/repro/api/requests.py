"""Typed request/response envelopes — the API the CLI subcommands adapt.

Every operation the library runs — a simulation day, a chaos campaign,
an oracle verification, a runtime estimate, a what-if delta-replay — is
spelled as a frozen request dataclass whose fields are plain JSON
scalars.  A request is handed to :func:`dispatch` in process; its
``to_wire()`` dict is plain JSON that :func:`request_from_wire` rebuilds
strictly (unknown kinds, unknown fields and rejected values all raise
:class:`~repro.errors.ConfigurationError`).

``digest()`` is the request's canonical identity: the SHA-256 of its
kind plus its sorted, canonically-serialised parameters.  Two requests
with equal digests describe byte-identical work — every simulation in
this repository is a pure function of ``(config, seed)``.  The digest
is stable across processes and interpreters because it never hashes
runtime objects, only the JSON scalar fields.

Responses mirror the requests: each carries the rich in-process result
object (``report`` / ``simulation``) for callers that want it (the CLI
renders from it, byte-identical to the pre-envelope output) plus a
``result()`` dict of simulation-deterministic JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing as t
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import SimulationConfig, SimulationResult
    from repro.chaos.report import ChaosReport
    from repro.oracle.verify import VerifyReport

#: streaming progress callback: one human-readable line per event
Progress = t.Optional[t.Callable[[str], None]]

DAY = 86_400.0


def canonical_json(obj: t.Any) -> str:
    """The byte-stable rendering digests are computed over."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class Request:
    """Base envelope: JSON-scalar fields plus the canonical digest."""

    kind: t.ClassVar[str] = ""

    seed: int = 0

    def params(self) -> dict[str, t.Any]:
        """The request's fields as plain JSON values (tuples -> lists)."""
        out: dict[str, t.Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def digest(self) -> str:
        """SHA-256 over ``(kind, params)`` — equal digests mean
        byte-identical results, because every run is a pure function of
        its seeded parameters."""
        blob = canonical_json({"kind": self.kind, "params": self.params()})
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_wire(self) -> dict[str, t.Any]:
        """The JSON dict :func:`request_from_wire` rebuilds this from."""
        return {"kind": self.kind, **self.params()}


@dataclass(frozen=True, kw_only=True)
class SimulateRequest(Request):
    """One simulated RM day (the servable core of
    :class:`~repro.api.SimulationConfig` — every field a JSON scalar)."""

    kind: t.ClassVar[str] = "simulate"

    rm: str = "eslurm"
    n_nodes: int = 1024
    n_satellites: int = 2
    failures: bool = False
    monitoring: bool | None = None
    n_jobs: int = 500
    horizon_s: float = DAY
    placement: str = "first-fit"
    malleable: bool = False

    def __post_init__(self) -> None:
        self.to_config()  # SimulationConfig owns the validation rules

    def to_config(self, sink: t.Any = None) -> "SimulationConfig":
        """The full config this request stands for (telemetry on, so the
        response can report deterministic event counts)."""
        from repro.api import SimulationConfig, TelemetryConfig

        return SimulationConfig(
            rm=self.rm,
            n_nodes=self.n_nodes,
            n_satellites=self.n_satellites,
            seed=self.seed,
            failures=self.failures,
            monitoring=self.monitoring,
            n_jobs=self.n_jobs,
            horizon_s=self.horizon_s,
            placement=self.placement,
            malleable=self.malleable,
            telemetry=TelemetryConfig(enabled=True, sink=sink),
        )


@dataclass(frozen=True, kw_only=True)
class ChaosRequest(Request):
    """One invariant-checked chaos campaign run."""

    kind: t.ClassVar[str] = "chaos"

    scenario: str = "failure-storm"

    def __post_init__(self) -> None:
        from repro.chaos import get_scenario

        get_scenario(self.scenario)  # ConfigurationError on unknown names


@dataclass(frozen=True, kw_only=True)
class VerifyRequest(Request):
    """One oracle verification pass (differential/metamorphic/golden)."""

    kind: t.ClassVar[str] = "verify"

    layers: tuple[str, ...] = ("differential", "metamorphic", "golden")
    relations: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        from repro.oracle import relations_table
        from repro.oracle.verify import LAYERS

        unknown = set(self.layers) - set(LAYERS)
        if unknown:
            raise ConfigurationError(
                f"unknown verify layers {sorted(unknown)}; choose from {list(LAYERS)}"
            )
        if self.relations is not None:
            known = {r.name for r in relations_table()}
            missing = set(self.relations) - known
            if missing:
                # same message shape run_verify raises, so the CLI usage
                # error reads identically through either path
                raise ConfigurationError(
                    f"unknown relations: {sorted(missing)} (known: {sorted(known)})"
                )


@dataclass(frozen=True, kw_only=True)
class EstimateRequest(Request):
    """One runtime-estimate query: train the paper's estimator on a
    seeded synthetic history, then estimate a described job.

    This is the estimator-as-a-service surface the End-to-End
    Predictions framework motivates: the query costs one model lookup
    on a deterministically trained framework, so repeated queries
    return identical answers like any other request.
    """

    kind: t.ClassVar[str] = "estimate"

    #: completed jobs the framework trains on before the query
    n_history: int = 300
    #: workload job-size ceiling for the synthetic history
    max_nodes: int = 64
    #: the query job's width
    job_nodes: int = 8
    #: the query job's user wall request (``None``: user gave none)
    user_estimate_s: float | None = None
    #: job-script name to query (``None``: the history's most recent
    #: name, i.e. an application the model has definitely seen)
    app: str | None = None
    k_clusters: int = 12

    def __post_init__(self) -> None:
        if self.n_history < 50 or self.n_history > 5000:
            raise ConfigurationError("n_history must be in [50, 5000]")
        if self.max_nodes < 1 or self.job_nodes < 1:
            raise ConfigurationError("max_nodes/job_nodes must be >= 1")
        if self.k_clusters < 1:
            raise ConfigurationError("k_clusters must be >= 1")
        if self.user_estimate_s is not None and self.user_estimate_s <= 0:
            raise ConfigurationError("user_estimate_s must be positive")


@dataclass(frozen=True, kw_only=True)
class WhatIfRequest(Request):
    """One what-if delta-replay: run a base day to ``at_s``, snapshot,
    apply a perturbation, and finish the day from the snapshot.

    The base-day fields mirror :class:`SimulateRequest`; ``perturb`` is
    the perturbation's wire dict (see
    :mod:`repro.snapshot.perturb`), normalised at construction to its
    full explicit form so two requests that mean the same work always
    share one digest.
    """

    kind: t.ClassVar[str] = "what-if"

    rm: str = "eslurm"
    n_nodes: int = 1024
    n_satellites: int = 2
    failures: bool = False
    monitoring: bool | None = None
    n_jobs: int = 500
    horizon_s: float = DAY
    placement: str = "first-fit"
    malleable: bool = False
    #: snapshot point, simulated seconds after the day starts
    at_s: float = DAY / 2
    #: wire form of the perturbation to apply at the snapshot
    perturb: dict[str, t.Any] = field(
        default_factory=lambda: {"kind": "submit-job"}
    )

    def __post_init__(self) -> None:
        self.to_sim_config()  # SimulationConfig owns the base-day rules
        if not 0.0 <= self.at_s < self.horizon_s:
            raise ConfigurationError(
                f"at_s={self.at_s} must lie in [0, horizon_s={self.horizon_s})"
            )
        # Validate and canonicalise: defaults become explicit, so the
        # digest is invariant to how sparsely the caller spelled it.
        object.__setattr__(self, "perturb", self.perturbation().to_wire())

    def perturbation(self) -> t.Any:
        from repro.snapshot.perturb import perturbation_from_wire

        return perturbation_from_wire(self.perturb)

    def to_sim_config(self) -> "SimulationConfig":
        """The base-day config (telemetry off: snapshot worlds exclude
        host-clock measurement by design)."""
        from repro.api import SimulationConfig

        return SimulationConfig(
            rm=self.rm,
            n_nodes=self.n_nodes,
            n_satellites=self.n_satellites,
            seed=self.seed,
            failures=self.failures,
            monitoring=self.monitoring,
            n_jobs=self.n_jobs,
            horizon_s=self.horizon_s,
            placement=self.placement,
            malleable=self.malleable,
        )


#: kind name -> request class (the wire-format registry)
REQUEST_TYPES: dict[str, type[Request]] = {
    cls.kind: cls
    for cls in (
        SimulateRequest,
        ChaosRequest,
        VerifyRequest,
        EstimateRequest,
        WhatIfRequest,
    )
}

REQUEST_KINDS: tuple[str, ...] = tuple(sorted(REQUEST_TYPES))


def request_from_wire(wire: t.Mapping[str, t.Any]) -> Request:
    """Rebuild a typed request from its JSON dict; strict on every key.

    Raises:
        ConfigurationError: unknown ``kind``, unknown field, or field
            values the request class rejects — the errors the CLI maps
            to exit code 3.
    """
    kind = wire.get("kind")
    cls = REQUEST_TYPES.get(t.cast(str, kind))
    if cls is None:
        raise ConfigurationError(
            f"unknown request kind {kind!r}; choose from {list(REQUEST_KINDS)}"
        )
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(wire) - allowed - {"kind"}
    if unknown:
        raise ConfigurationError(
            f"unknown {kind} request field(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    tuple_fields = {
        f.name
        for f in dataclasses.fields(cls)
        if "tuple" in str(f.type)
    }
    kwargs: dict[str, t.Any] = {}
    for name, value in wire.items():
        if name == "kind":
            continue
        if name in tuple_fields and isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad {kind} request: {exc}") from None


# ---------------------------------------------------------------------------
# responses
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Response:
    """Base envelope a :func:`dispatch` call hands back.

    ``ok`` is the *check* outcome (violations found, relations broken),
    not execution success — a run that completed but found violations
    still returns a full response.
    """

    request: Request
    ok: bool

    def result(self) -> dict[str, t.Any]:
        """Simulation-deterministic JSON body."""
        raise NotImplementedError

    def to_wire(self) -> dict[str, t.Any]:
        return {
            "kind": self.request.kind,
            "digest": self.request.digest(),
            "ok": self.ok,
            "result": self.result(),
        }


@dataclass(frozen=True)
class SimulateResponse(Response):
    simulation: "SimulationResult" = None  # type: ignore[assignment]

    def result(self) -> dict[str, t.Any]:
        report = self.simulation.report
        schedule = (
            dataclasses.asdict(report.schedule) if report.schedule is not None else {}
        )
        counters = (self.simulation.telemetry or {}).get("counters", {})
        return {
            "rm": report.rm_name,
            "n_nodes": report.n_nodes,
            "seed": self.request.seed,
            "events": int(counters.get("sim.events", 0)),
            "sim_time_s": float(counters.get("sim.time_s", 0.0)),
            "schedule": schedule,
            "master": dict(report.master),
            "n_satellites": len(report.satellites),
        }


@dataclass(frozen=True)
class ChaosResponse(Response):
    report: "ChaosReport" = None  # type: ignore[assignment]

    def result(self) -> dict[str, t.Any]:
        return dataclasses.asdict(self.report)


@dataclass(frozen=True)
class VerifyResponse(Response):
    report: "VerifyReport" = None  # type: ignore[assignment]

    def result(self) -> dict[str, t.Any]:
        return self.report.to_payload()


@dataclass(frozen=True)
class EstimateResponse(Response):
    #: the returned wall-time estimate (slack applied; ``None`` when the
    #: framework had no model *and* the user gave no estimate)
    estimate_s: float | None = None
    #: the model's pre-slack value (``None`` when no model answered)
    model_estimate_s: float | None = None
    #: which source won the AEA gate: ``"model"`` / ``"user"`` / ``"none"``
    source: str = "none"
    trainings: int = 0
    aea: float = 0.0
    app: str = ""

    def result(self) -> dict[str, t.Any]:
        return {
            "estimate_s": self.estimate_s,
            "model_estimate_s": self.model_estimate_s,
            "source": self.source,
            "trainings": self.trainings,
            "aea": self.aea,
            "app": self.app,
            "seed": self.request.seed,
        }


@dataclass(frozen=True)
class WhatIfResponse(Response):
    outcome: t.Any = None  # WhatIfOutcome

    def result(self) -> dict[str, t.Any]:
        payload = self.outcome.to_payload()
        # `warm` is a host-side execution detail (did the live world get
        # reused), not a simulation fact — keep the result body purely
        # simulation-deterministic, like every other response.
        payload.pop("warm", None)
        payload["rm"] = self.request.rm
        payload["n_nodes"] = self.request.n_nodes
        payload["seed"] = self.request.seed
        payload["at_s"] = self.request.at_s
        return payload


# ---------------------------------------------------------------------------
# dispatch — the single entry point the CLI adapts
# ---------------------------------------------------------------------------
def _run_simulate(request: SimulateRequest, progress: Progress) -> SimulateResponse:
    from repro.api import run_simulation
    from repro.telemetry.sinks import CallbackSink

    sink = None
    if progress is not None:
        progress(
            f"simulate: rm={request.rm} nodes={request.n_nodes} "
            f"jobs={request.n_jobs} seed={request.seed}"
        )
        # stream the existing telemetry span seam: every instrumented
        # region >= 10 ms becomes one progress line
        sink = CallbackSink(
            lambda rec: progress(f"[span] {rec.name} {rec.elapsed_s * 1e3:.0f}ms"),
            min_elapsed_s=0.010,
        )
    simulation = run_simulation(request.to_config(sink))
    if progress is not None:
        counters = (simulation.telemetry or {}).get("counters", {})
        progress(f"simulate: done, {int(counters.get('sim.events', 0))} events")
    return SimulateResponse(request=request, ok=True, simulation=simulation)


def _run_chaos(request: ChaosRequest, progress: Progress) -> ChaosResponse:
    from repro.chaos import run_scenario

    if progress is not None:
        progress(f"chaos: scenario={request.scenario} seed={request.seed}")
    report = run_scenario(request.scenario, seed=request.seed)
    if progress is not None:
        progress(
            f"chaos: done, {report.faults_injected} faults, "
            f"{report.total_violations} violation(s)"
        )
    return ChaosResponse(request=request, ok=report.ok, report=report)


def _run_verify(request: VerifyRequest, progress: Progress) -> VerifyResponse:
    from repro.oracle.verify import run_verify

    report = run_verify(
        seed=request.seed,
        layers=request.layers,
        progress=progress,
        relations=list(request.relations) if request.relations is not None else None,
    )
    return VerifyResponse(request=request, ok=report.ok, report=report)


def _run_estimate(request: EstimateRequest, progress: Progress) -> EstimateResponse:
    import numpy as np

    from repro.estimate.framework import EslurmEstimator, EstimatorConfig
    from repro.sched.job import Job
    from repro.workload.synthetic import WorkloadConfig, generate_trace

    jobs = generate_trace(
        WorkloadConfig(
            n_users=16, n_apps=12, jobs_per_day=2000.0, max_nodes=request.max_nodes
        ),
        request.n_history,
        seed=request.seed,
    )
    estimator = EslurmEstimator(
        EstimatorConfig(k_clusters=request.k_clusters),
        rng=np.random.default_rng(request.seed),
    )
    for job in jobs:
        estimator.estimate(job, job.submit_time)
        estimator.observe(job, job.submit_time)
    if progress is not None:
        progress(
            f"estimate: trained on {len(jobs)} jobs "
            f"({estimator.trainings} model generation(s))"
        )
    last = jobs[-1]
    app = request.app if request.app is not None else last.name
    query = Job(
        job_id=last.job_id + 1,
        name=app,
        user=last.user,
        n_nodes=request.job_nodes,
        # the true runtime is what the estimator predicts — any positive
        # placeholder works, the encoder never sees it
        runtime_s=1.0,
        user_estimate_s=request.user_estimate_s,
        submit_time=last.submit_time + 1.0,
    )
    value = estimator.estimate(query, query.submit_time)
    if value is None:
        source = "none"
    elif (
        request.user_estimate_s is not None and value == request.user_estimate_s
    ):
        source = "user"
    else:
        source = "model"
    return EstimateResponse(
        request=request,
        ok=True,
        estimate_s=value,
        model_estimate_s=query.model_estimate_s,
        source=source,
        trainings=estimator.trainings,
        aea=round(estimator.average_estimation_accuracy(), 6),
        app=app,
    )


def _run_whatif(request: WhatIfRequest, progress: Progress) -> WhatIfResponse:
    from repro.snapshot import SimWorld, capture, what_if

    if progress is not None:
        progress(
            f"what-if: rm={request.rm} nodes={request.n_nodes} "
            f"at_s={request.at_s:g} perturb={request.perturb['kind']} "
            f"seed={request.seed}"
        )
    world = SimWorld(request.to_sim_config())
    world.run_until(world.sim.now + request.at_s)
    snapshot = capture(world)
    if progress is not None:
        progress(
            f"what-if: snapshot at event {snapshot.event_index} "
            f"(t={snapshot.sim_now:g}s), replaying delta"
        )
    outcome = what_if(snapshot, request.perturbation())
    if progress is not None:
        progress(
            f"what-if: done, resumed {outcome.events_resumed} of "
            f"{outcome.events_total} events "
            f"({outcome.events_at_snapshot} reused from the base run)"
        )
    return WhatIfResponse(request=request, ok=True, outcome=outcome)


_HANDLERS: dict[type[Request], t.Callable[[t.Any, Progress], Response]] = {
    SimulateRequest: _run_simulate,
    ChaosRequest: _run_chaos,
    VerifyRequest: _run_verify,
    EstimateRequest: _run_estimate,
    WhatIfRequest: _run_whatif,
}


def dispatch(request: Request, progress: Progress = None) -> Response:
    """Execute one typed request and return its typed response.

    The single entry point everything adapts: ``repro simulate`` /
    ``chaos run`` / ``verify run`` / ``estimate`` / ``whatif run``
    render the returned response.

    Args:
        request: any of the four envelope types.
        progress: optional line-oriented streaming callback — fed from
            the existing seams (verify's per-relation lines, telemetry
            span events for simulations).
    """
    handler = _HANDLERS.get(type(request))
    if handler is None:
        raise ConfigurationError(
            f"dispatch() takes a typed request envelope, got {type(request).__name__}"
        )
    return handler(request, progress)
