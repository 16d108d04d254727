"""What-if perturbations: small, validated deltas applied at a snapshot.

Each perturbation is a frozen dataclass with three faces:

* ``apply(world)`` — inject the delta as a simulation event at the
  world's current (paused) time, so the perturbed run stays fully
  deterministic: the delta enters the event order through the same
  heap/seq machinery as everything else;
* ``observe(world)`` — after the day finishes, report the probe's
  outcome (did the job start, when, what happened to the node...);
* ``to_wire()`` / :func:`perturbation_from_wire` — strict JSON-scalar
  round-trip for the ``what-if`` request kind.  Unknown kinds or fields
  raise :class:`~repro.errors.ConfigurationError`, which the CLI maps
  to exit 3.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sched.job import Job, JobState

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.snapshot.world import SimWorld

#: probe jobs live far above any trace-generated id so the injected job
#: can never collide with (or re-order against) a workload job
PROBE_JOB_ID_BASE = 10_000_000


@dataclass(frozen=True)
class Perturbation:
    """Base class; subclasses define ``kind`` and the three faces."""

    kind: t.ClassVar[str] = ""

    def apply(self, world: "SimWorld") -> None:
        raise NotImplementedError

    def observe(self, world: "SimWorld") -> dict[str, t.Any]:
        raise NotImplementedError

    def params(self) -> dict[str, t.Any]:
        raise NotImplementedError

    def to_wire(self) -> dict[str, t.Any]:
        return {"kind": self.kind, **self.params()}


@dataclass(frozen=True)
class SubmitJob(Perturbation):
    """"What if this job were submitted now?" — the paper's core probe."""

    kind: t.ClassVar[str] = "submit-job"

    job_nodes: int = 8
    job_runtime_s: float = 3600.0
    job_limit_s: float | None = None

    def __post_init__(self) -> None:
        if self.job_nodes < 1:
            raise ConfigurationError("submit-job: job_nodes must be >= 1")
        if self.job_runtime_s <= 0:
            raise ConfigurationError("submit-job: job_runtime_s must be positive")
        if self.job_limit_s is not None and self.job_limit_s <= 0:
            raise ConfigurationError("submit-job: job_limit_s must be positive")

    def params(self) -> dict[str, t.Any]:
        return {
            "job_nodes": self.job_nodes,
            "job_runtime_s": self.job_runtime_s,
            "job_limit_s": self.job_limit_s,
        }

    def _probe_id(self, world: "SimWorld") -> int:
        return PROBE_JOB_ID_BASE + sum(
            1 for job in world.rm.jobs if job.job_id >= PROBE_JOB_ID_BASE
        )

    def apply(self, world: "SimWorld") -> None:
        if self.job_nodes > world.rm.pool.n_total:
            raise ConfigurationError(
                f"submit-job: {self.job_nodes} nodes exceeds the "
                f"{world.rm.pool.n_total}-node machine"
            )
        job = Job(
            job_id=self._probe_id(world),
            name="whatif-probe",
            user="whatif",
            n_nodes=self.job_nodes,
            runtime_s=self.job_runtime_s,
            user_estimate_s=self.job_limit_s,
            submit_time=world.sim.now,
        )
        world.sim.call_at(world.sim.now, lambda: world.rm.submit(job))

    def observe(self, world: "SimWorld") -> dict[str, t.Any]:
        probes = [job for job in world.rm.jobs if job.job_id >= PROBE_JOB_ID_BASE]
        if not probes:
            # Submission failed to connect and the retry fell past the
            # horizon: the probe never entered the system.
            return {"state": None, "wait_s": None, "started": False}
        job = probes[-1]
        started = job.start_time is not None
        return {
            "job_id": job.job_id,
            "state": job.state.name,
            "started": started,
            "wait_s": (job.start_time - job.submit_time) if started else None,
            "start_time": job.start_time,
            "end_time": job.end_time,
        }


@dataclass(frozen=True)
class FailNode(Perturbation):
    """"What if this node died now?" — fault-tolerance probing."""

    kind: t.ClassVar[str] = "fail-node"

    node_id: int = 0
    duration_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ConfigurationError("fail-node: node_id must be >= 0")
        if self.duration_s <= 0:
            raise ConfigurationError("fail-node: duration_s must be positive")

    def params(self) -> dict[str, t.Any]:
        return {"node_id": self.node_id, "duration_s": self.duration_s}

    def apply(self, world: "SimWorld") -> None:
        if not world.rm.pool.has_node(self.node_id):
            raise ConfigurationError(
                f"fail-node: node {self.node_id} is not a compute node of this world"
            )
        # Remember who is allocated on the node at the cut — a finished
        # job clears its allocation, so this cannot be reconstructed
        # after the day ends.  Not a dataclass field: identity-free
        # bookkeeping, invisible to eq/wire.
        at_risk = tuple(
            sorted(
                job_id
                for job_id, rec in world.rm.pool.running.items()
                if self.node_id in rec.node_ids
            )
        )
        object.__setattr__(self, "_jobs_at_risk", at_risk)
        world.cluster.failures.schedule_fault(
            "point", world.sim.now, (self.node_id,), self.duration_s
        )

    def observe(self, world: "SimWorld") -> dict[str, t.Any]:
        at_risk = getattr(self, "_jobs_at_risk", ())
        by_id = {job.job_id: job for job in world.rm.jobs}
        killed = [
            job_id
            for job_id in at_risk
            if job_id in by_id and by_id[job_id].state is JobState.FAILED
        ]
        return {
            "node_id": self.node_id,
            "final_state": world.cluster.state_of(self.node_id).name,
            "jobs_at_risk": list(at_risk),
            "jobs_failed_on_node": killed,
        }


@dataclass(frozen=True)
class CancelJob(Perturbation):
    """"What if this queued job were cancelled now?"."""

    kind: t.ClassVar[str] = "cancel-job"

    job_id: int = 0

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ConfigurationError("cancel-job: job_id must be >= 0")

    def params(self) -> dict[str, t.Any]:
        return {"job_id": self.job_id}

    def apply(self, world: "SimWorld") -> None:
        rm = world.rm

        def _cancel() -> None:
            for job in list(rm.queue):
                if job.job_id == self.job_id:
                    rm.queue.remove(job)
                    job.cancel(rm.sim.now)
                    rm._schedule_pass()
                    return
            # Not pending at the cut: a no-op, reported by observe().

        world.sim.call_at(world.sim.now, _cancel)

    def observe(self, world: "SimWorld") -> dict[str, t.Any]:
        for job in world.rm.jobs:
            if job.job_id == self.job_id:
                return {
                    "job_id": self.job_id,
                    "found": True,
                    "state": job.state.name,
                    "cancelled": job.state is JobState.CANCELLED,
                }
        return {"job_id": self.job_id, "found": False, "state": None, "cancelled": False}


PERTURBATION_TYPES: dict[str, type[Perturbation]] = {
    cls.kind: cls for cls in (SubmitJob, FailNode, CancelJob)
}


def perturbation_from_wire(wire: t.Mapping[str, t.Any]) -> Perturbation:
    """Parse and validate a wire perturbation (strict, like the envelopes)."""
    if not isinstance(wire, t.Mapping):
        raise ConfigurationError(f"perturbation must be an object, got {wire!r}")
    data = dict(wire)
    kind = data.pop("kind", None)
    cls = PERTURBATION_TYPES.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown perturbation kind {kind!r}; choose from {sorted(PERTURBATION_TYPES)}"
        )
    fields = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - fields
    if unknown:
        raise ConfigurationError(
            f"perturbation {kind!r} got unknown field(s) {sorted(unknown)}"
        )
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigurationError(f"perturbation {kind!r}: {exc}") from None
