"""Named, reproducible random-number streams.

Every stochastic component in the library draws from its own named
stream so that adding randomness to one subsystem never perturbs
another's draws — a prerequisite for meaningful A/B experiments
(e.g. Slurm vs ESLURM on *the same* failure realisation).

Streams are derived from the master seed with ``numpy``'s
:class:`~numpy.random.SeedSequence` ``spawn_key`` mechanism keyed by a
stable hash of the stream name, so ``RngRegistry(7).stream("monitoring")``
is identical across runs and machines.
"""

from __future__ import annotations

import copy
import typing as t
import zlib

import numpy as np

from repro.errors import ConfigurationError, SimulationError


class RngRegistry:
    """Registry of named :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {seed!r}")
        if seed < 0:
            # SeedSequence rejects negative entropy, but only when the
            # first stream is drawn; fail here, where the seed is given
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def fork(self, name: str, index: int) -> np.random.Generator:
        """An independent per-entity stream, e.g. one per node."""
        key = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key, int(index)))
        return np.random.default_rng(seq)

    def adopt(self, name: str, generator: np.random.Generator) -> np.random.Generator:
        """Register an externally-constructed generator under ``name``.

        Components that derive their generator some other way (e.g. the
        ESLURM estimator seeds ``default_rng(seed)`` directly, a
        derivation frozen into the golden traces) must still be visible
        to :meth:`getstate`/:meth:`setstate`, or a restored simulator
        would silently resume them from the wrong point.  Adopting the
        same name twice with a different generator object is an error —
        that is exactly the aliasing bug snapshots need to catch.
        """
        existing = self._streams.get(name)
        if existing is not None and existing is not generator:
            raise SimulationError(f"rng stream {name!r} already registered")
        self._streams[name] = generator
        return generator

    def getstate(self) -> dict[str, dict[str, t.Any]]:
        """Deep-copied ``bit_generator.state`` of every materialised stream.

        The copy matters: numpy hands back a dict that aliases mutable
        internals, and a snapshot must not move when the live simulator
        keeps drawing.
        """
        return {
            name: copy.deepcopy(gen.bit_generator.state)
            for name, gen in self._streams.items()
        }

    def setstate(self, state: dict[str, dict[str, t.Any]]) -> None:
        """Restore every stream captured by :meth:`getstate`, exactly.

        Streams not yet materialised are created first; the recorded
        state then overwrites the fresh derivation, so the round-trip is
        exact regardless of how the original stream was derived — except
        for adopted streams with a non-default bit generator, which must
        be re-adopted before calling this.  Each stream gets its own
        deep copy, so two registries restored from one state dict can
        never influence each other through shared state objects.
        """
        for name, bit_state in state.items():
            gen = self._streams.get(name)
            if gen is None:
                gen = self.stream(name)
            expected = type(gen.bit_generator).__name__
            recorded = bit_state.get("bit_generator")
            if recorded != expected:
                raise SimulationError(
                    f"rng stream {name!r} holds a {expected} bit generator but the "
                    f"snapshot recorded {recorded!r}; re-adopt the stream first"
                )
            gen.bit_generator.state = copy.deepcopy(bit_state)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngRegistry seed={self.seed} streams={sorted(self._streams)}>"
