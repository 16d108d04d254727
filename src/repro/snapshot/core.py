"""Snapshot capture, verified restore, and what-if delta-replay.

Two restore paths share one :class:`Snapshot`:

* **warm** — the snapshot keeps a reference to the live paused world.
  :func:`what_if` consumes it (once) and replays only the remainder of
  the day: this is the cheap path for answering a what-if against a
  base run already paused at the cut.
* **cold** — :func:`restore` rebuilds the world from the config (a pure
  function of ``(config, seed)``), replays exactly ``event_index``
  events, restores the paused clock, and verifies the recomputed state
  digest against the captured one.  A mismatch raises
  :class:`SnapshotError` naming the first divergent field — replay
  nondeterminism is a loud failure, never a silently different answer.

Both paths are locked to the straight run by the ``snapshot-equivalence``
oracle relation and the property sweeps in ``tests/snapshot``: golden
trace hashes and final payloads must be byte-identical.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

from repro.api import SimulationConfig
from repro.errors import ReproError
from repro.snapshot.capture import capture_state, first_divergence, state_digest
from repro.snapshot.perturb import Perturbation
from repro.snapshot.world import SimWorld


class SnapshotError(ReproError):
    """Restore could not reproduce the captured state exactly."""


@dataclass
class Snapshot:
    """A deterministic checkpoint of one simulated day.

    The captured ``state`` tree plus its digest are the verifiable
    payload; ``config``/``event_index``/``sim_now`` are the recipe a
    cold restore replays from.  ``_world`` (when present) is the live
    paused world for the warm path — consumed by the first
    :func:`what_if` or :meth:`take_world` call.
    """

    config: SimulationConfig
    event_index: int
    sim_now: float
    state: dict[str, t.Any]
    digest: str
    _world: SimWorld | None = field(default=None, repr=False, compare=False)

    @property
    def warm(self) -> bool:
        """Whether the live captured world is still attached."""
        return self._world is not None

    def take_world(self) -> SimWorld | None:
        """Detach and return the live world (consume-once), if any."""
        world, self._world = self._world, None
        return world

    def detach(self) -> "Snapshot":
        """Drop the live-world reference; cold restores still work."""
        self._world = None
        return self


def capture(world: SimWorld, detach: bool = False) -> Snapshot:
    """Checkpoint a paused world.

    Purely observational — capturing must not perturb the run, which is
    exactly what the warm half of the equivalence tests establishes
    (capture, resume, compare against the uncaptured straight run).

    Args:
        world: a :class:`SimWorld` paused between ``run_*`` calls.
        detach: drop the live-world reference immediately (cold-only
            snapshot, e.g. when the caller keeps driving the world).
    """
    state = capture_state(world)
    snapshot = Snapshot(
        config=world.config,
        event_index=world.sim.events_processed,
        sim_now=world.sim.now,
        state=state,
        digest=state_digest(state),
        _world=None if detach else world,
    )
    return snapshot


def restore(
    snapshot: Snapshot,
    verify: bool = True,
    on_build: t.Callable[[SimWorld], None] | None = None,
) -> SimWorld:
    """Cold-restore: rebuild, replay to the boundary, verify, return.

    Args:
        snapshot: checkpoint to restore (its warm world, if any, is
            left untouched — a snapshot supports unlimited cold
            restores).
        verify: recompute the full state walk on the restored world and
            compare it field-by-field against the capture (raises
            :class:`SnapshotError` on the first divergence).  Costs one
            state walk; disable only in hot loops that already ran the
            equivalence suite.
        on_build: called with the fresh world *before* replay — the seam
            for attaching trace hooks that must observe the replayed
            prefix (the equivalence tests hash prefix + suffix).
    """
    world = SimWorld(snapshot.config)
    if on_build is not None:
        on_build(world)
    replayed = world.run_events_until(snapshot.event_index)
    if world.sim.events_processed != snapshot.event_index:
        raise SnapshotError(
            f"replay exhausted after {replayed} events; snapshot was taken at "
            f"event {snapshot.event_index} — the rebuilt world diverged"
        )
    world.sim.restore_clock(snapshot.sim_now)
    if verify:
        replayed_state = capture_state(world)
        replayed_digest = state_digest(replayed_state)
        if replayed_digest != snapshot.digest:
            hit = first_divergence(snapshot.state, replayed_state)
            path, want, got = hit if hit is not None else ("<digest only>", "", "")
            raise SnapshotError(
                f"restored state diverges from capture at {path}: "
                f"captured {want!r}, replayed {got!r} "
                f"(digest {snapshot.digest} != {replayed_digest})"
            )
    return world


@dataclass(frozen=True)
class WhatIfOutcome:
    """Result of one delta-replay, with its cost accounting."""

    #: deterministic end-of-day payload of the perturbed run
    payload: dict[str, t.Any]
    #: perturbation-specific facts (probe job outcome, nodes failed...)
    probe: dict[str, t.Any]
    #: wire form of the applied perturbation
    perturbation: dict[str, t.Any]
    #: events replayed after the snapshot point (the delta)
    events_resumed: int
    #: events the snapshot had already processed (saved vs a full rerun)
    events_at_snapshot: int
    #: total events of the perturbed day
    events_total: int
    sim_now_at_snapshot: float
    snapshot_digest: str
    #: True when the live captured world was consumed (no replay cost)
    warm: bool

    def to_payload(self) -> dict[str, t.Any]:
        """One flat deterministic dict (bench files / what-if responses)."""
        return {
            "perturbation": dict(self.perturbation),
            "probe": dict(self.probe),
            "events_resumed": self.events_resumed,
            "events_at_snapshot": self.events_at_snapshot,
            "events_total": self.events_total,
            "sim_now_at_snapshot": self.sim_now_at_snapshot,
            "snapshot_digest": self.snapshot_digest,
            "result": dict(self.payload),
        }


def what_if(snapshot: Snapshot, perturbation: Perturbation) -> WhatIfOutcome:
    """Apply a perturbation at the snapshot point and finish the day.

    Consumes the snapshot's warm world when one is attached (zero replay
    cost); otherwise cold-restores first.  The outcome records both the
    resumed-event delta and the events the snapshot already covered, so
    callers can report exactly how much work delta-replay saved.
    """
    world = snapshot.take_world()
    warm = world is not None
    if world is None:
        world = restore(snapshot)
    perturbation.apply(world)
    world.run_to_horizon()
    probe = perturbation.observe(world)
    return WhatIfOutcome(
        payload=world.final_payload(),
        probe=probe,
        perturbation=perturbation.to_wire(),
        events_resumed=world.sim.events_processed - snapshot.event_index,
        events_at_snapshot=snapshot.event_index,
        events_total=world.sim.events_processed,
        sim_now_at_snapshot=snapshot.sim_now,
        snapshot_digest=snapshot.digest,
        warm=warm,
    )
