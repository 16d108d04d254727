"""A simulated RM day built for external driving.

:func:`repro.api.run_simulation` builds and runs a day in one call; a
snapshot needs the same world *paused* at arbitrary event boundaries.
:class:`SimWorld` reuses the facade's construction helpers
(:func:`repro.api.quick_cluster` / :func:`repro.api.prepare_rm_day` /
:func:`repro.api.rm_kwargs_for_config`) verbatim, so a world driven
straight to the horizon is event-for-event identical to
``run_simulation`` on the same config — the invariant every equivalence
test in this package rests on.
"""

from __future__ import annotations

import typing as t

from repro.api import (
    SimulationConfig,
    prepare_rm_day,
    quick_cluster,
    rm_kwargs_for_config,
)
from repro.errors import ConfigurationError
from repro.oracle.golden import TraceDigest
from repro.rm.base import RmReport


class SimWorld:
    """One simulated RM day: built immediately, run under caller control.

    Construction is a pure function of the config — two worlds built
    from equal configs are in identical states before any event runs.
    Telemetry sessions are refused: a session's metrics registry is
    not part of the captured state, so a restored world would report
    different counters than the world it was captured from.
    """

    def __init__(self, config: SimulationConfig) -> None:
        if config.telemetry.enabled:
            raise ConfigurationError(
                "snapshot worlds run without telemetry sessions (a session's "
                "registry is not captured, so a restored world would report "
                "different counters)"
            )
        self.config = config
        self.cluster = quick_cluster(
            n_nodes=config.n_nodes,
            n_satellites=config.n_satellites,
            seed=config.seed,
            failures=config.failures,
            monitoring=config.monitoring,
        )
        self.sim = self.cluster.sim
        rm_kwargs = rm_kwargs_for_config(config, self.cluster)
        self.rm, self.trace_jobs = prepare_rm_day(
            config.rm,
            self.cluster,
            n_jobs=config.n_jobs,
            seed=config.seed,
            horizon_s=config.horizon_s,
            workload=config.workload,
            estimator=config.estimator,
            **rm_kwargs,
        )
        #: absolute stop time — fixed at build, exactly as ``run_rm_day``
        #: computes it before anything runs
        self.horizon_end = self.sim.now + config.horizon_s
        # Schedule every submission without running a single event.
        self.rm.run_trace(self.trace_jobs, until=None)

    # -- driving -----------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def events_processed(self) -> int:
        return self.sim.events_processed

    def attach_trace_digest(self) -> TraceDigest:
        """Hook a fresh golden-trace digest onto the event stream."""
        digest = TraceDigest()
        self.sim.add_trace_hook(digest.hook)
        return digest

    def run_until(self, when: float) -> None:
        """Advance to simulated time ``when`` (clamped to the horizon).

        Splitting the day into any sequence of ``run_until`` calls is
        event-identical to one straight run: the clock lands exactly on
        each intermediate deadline (``Simulator.run`` semantics), and no
        event between deadlines is reordered.
        """
        self.sim.run(until=min(float(when), self.horizon_end))

    def run_events_until(self, count: int) -> int:
        """Replay until ``events_processed`` reaches ``count``.

        Returns the number of events processed by this call; stops at
        the horizon if the world has fewer than ``count`` events.
        """
        return self.sim.run_until_count(count, deadline=self.horizon_end)

    def run_to_horizon(self) -> None:
        """Run the remainder of the day."""
        self.sim.run(until=self.horizon_end)

    # -- results -----------------------------------------------------------
    def report(self) -> RmReport:
        return self.rm.report(horizon_s=self.config.horizon_s)

    def final_payload(self) -> dict[str, t.Any]:
        """Deterministic end-of-day payload for byte-identity checks.

        The same shape for every backend: master accounting summary plus
        schedule metrics.  Byte-identical (via canonical JSON) across
        straight, warm-resumed, and cold-restored runs of one config.
        """
        from dataclasses import asdict

        rep = self.report()
        return {
            "rm": rep.rm_name,
            "n_nodes": rep.n_nodes,
            "events": self.sim.events_processed,
            "master": dict(rep.master),
            "schedule": asdict(rep.schedule) if rep.schedule is not None else None,
            "n_broadcasts": rep.n_broadcasts,
            "occupation_mean_s": rep.occupation_mean_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimWorld {self.config.rm} n={self.config.n_nodes} "
            f"t={self.sim.now:.6g} events={self.sim.events_processed}>"
        )
