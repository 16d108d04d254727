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

import zlib

import numpy as np

from repro.errors import ConfigurationError


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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngRegistry seed={self.seed} streams={sorted(self._streams)}>"
