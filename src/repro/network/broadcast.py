"""Broadcast engine interface and result record.

A broadcast engine answers: *given the live cluster state, how long does
disseminating one message of this size from this root to these targets
take, and who never got it?*  Engines are deterministic computations
over the :class:`~repro.network.fabric.NetworkFabric` latency model; the
RM layer invokes them for job-launch/termination messages and heartbeat
rounds, and the Fig. 8 experiments invoke them directly.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.telemetry import facade as telemetry

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.fabric import NetworkFabric


@dataclass
class BroadcastResult:
    """Outcome of one simulated broadcast.

    Attributes:
        structure: engine name (``ring``, ``star``, ...).
        makespan_s: time from dispatch until the last successful
            delivery (including all timeout penalties on the way).
        n_targets: number of intended recipients (root excluded).
        failed: ids of targets the payload never reached.
        n_timeouts: dead-node timeout events encountered.
        arrivals: optional per-node delivery times (populated only when
            the engine was asked to ``record_arrivals``).
    """

    structure: str
    makespan_s: float
    n_targets: int
    failed: tuple[int, ...] = ()
    n_timeouts: int = 0
    arrivals: dict[int, float] = field(default_factory=dict)


class BroadcastStructure:
    """Base class for broadcast engines."""

    #: engine name used in reports and figures
    name = "abstract"

    def simulate(
        self,
        root: int,
        targets: t.Sequence[int],
        size_bytes: int,
        fabric: "NetworkFabric",
        record_arrivals: bool = False,
    ) -> BroadcastResult:
        """Evaluate one broadcast; see :class:`BroadcastResult`."""
        raise NotImplementedError

    def simulate_forest(
        self,
        tasks: t.Sequence[tuple[int, t.Sequence[int]]],
        size_bytes: int,
        fabric: "NetworkFabric",
    ) -> list[BroadcastResult]:
        """Evaluate many ``(root, targets)`` broadcasts over one fabric.

        Engines that can batch (the tree engine's multi-root level
        sweep) override this; the default is plain sequential
        evaluation, so every engine accepts forest calls.
        """
        return [self.simulate(root, targets, size_bytes, fabric) for root, targets in tasks]

    @staticmethod
    def _validate(targets: t.Sequence[int], size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ConfigurationError("broadcast payload size must be positive")
        if len(set(targets)) != len(targets):
            raise ConfigurationError("broadcast target list contains duplicates")


class MemoizedBroadcast(BroadcastStructure):
    """Per-tree cache around a deterministic broadcast engine.

    A broadcast is a pure function of its root, its ordered targets,
    its payload size and which of *those targets* are down — liveness
    anywhere else in the machine cannot reach it.  The cache therefore
    keeps one slot per ``(root, size_bytes)`` holding the last target
    tuple, its node set, the down nodes among it and the result, and a
    tree hits when its targets are equal and its own down set is
    unchanged.

    A hit skips input validation: an equal target tuple passed it when
    the slot was stored.  ``record_arrivals`` and an active telemetry
    session (whose metrics must be recorded) go straight to the inner
    engine and are neither looked up nor counted.

    No engine of the simulator is wrapped in this cache: the FP-Tree
    engine walks its orderings with the plain tree engine, because its
    lookups all missed.  The class stays while the benchmark ledger
    still reads its counters.
    """

    def __init__(self, inner: BroadcastStructure) -> None:
        self.inner = inner
        self.name = inner.name
        #: per-tree lookups served from / missing the cache
        self.hits = 0
        self.misses = 0
        self._fabric: "NetworkFabric | None" = None
        #: (root, size) -> (targets, frozenset(targets), down among them, result)
        self._slots: dict[
            tuple[int, int], tuple[tuple[int, ...], frozenset[int], frozenset[int], BroadcastResult]
        ] = {}

    def simulate(
        self,
        root: int,
        targets: t.Sequence[int],
        size_bytes: int,
        fabric: "NetworkFabric",
        record_arrivals: bool = False,
    ) -> BroadcastResult:
        if record_arrivals:
            return self.inner.simulate(root, targets, size_bytes, fabric, record_arrivals)
        return self.simulate_forest([(root, targets)], size_bytes, fabric)[0]

    def simulate_forest(
        self,
        tasks: t.Sequence[tuple[int, t.Sequence[int]]],
        size_bytes: int,
        fabric: "NetworkFabric",
    ) -> list[BroadcastResult]:
        """Serve each tree from its slot; the missed trees share one
        inner forest call."""
        if telemetry.active() is not None:
            return self.inner.simulate_forest(tasks, size_bytes, fabric)
        if fabric is not self._fabric:
            self._slots.clear()
            self._fabric = fabric
        down = fabric.unreachable_ids()
        slots = self._slots
        keys = [tuple(targets) for _, targets in tasks]
        results: list[BroadcastResult | None] = []
        missed: list[int] = []
        for (root, _), key in zip(tasks, keys):
            slot = slots.get((root, size_bytes))
            if slot is not None and slot[0] == key and slot[1].intersection(down) == slot[2]:
                results.append(slot[3])
            else:
                missed.append(len(results))
                results.append(None)
        if missed:
            fresh = self.inner.simulate_forest([tasks[i] for i in missed], size_bytes, fabric)
            for i, result in zip(missed, fresh):
                nodes = frozenset(keys[i])
                slots[(tasks[i][0], size_bytes)] = (keys[i], nodes, nodes.intersection(down), result)
                results[i] = result
        self.hits += len(tasks) - len(missed)
        self.misses += len(missed)
        return [self._copy(r) for r in results]  # type: ignore[arg-type]

    @staticmethod
    def _copy(result: BroadcastResult) -> BroadcastResult:
        # Callers mutate results (ack-wait adjustments); never hand out
        # the cached instance itself.
        return replace(result, arrivals=dict(result.arrivals))
