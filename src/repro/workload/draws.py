"""Scalar random draws without numpy's per-call overhead.

The synthetic traces are fixed by their draw order: every job follows
from the exact sequence of values the seeded generator hands out, so
the paper's trace statistics, the goldens and the benchmark digests all
sit on it.  Each helper here returns what the numpy call it stands for
returns and consumes the same single double, so swapping one in leaves
every trace byte-identical (``tests/workload/test_draws.py`` checks the
values and the generator state against the numpy calls).
"""

from __future__ import annotations

import bisect
import functools

import numpy as np


def choice_cdf(weights: np.ndarray) -> tuple[float, ...]:
    """``weights``' CDF, built exactly as ``Generator.choice`` builds it."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def weighted_index(cdf: tuple[float, ...], rng: np.random.Generator) -> int:
    """``rng.choice(len(cdf), p=weights)`` for the ``weights`` behind ``cdf``.

    ``choice`` draws one ``rng.random()`` and returns
    ``cdf.searchsorted(u, side="right")``; ``bisect_right`` over the
    same floats is that search without the array round trip.
    """
    return bisect.bisect_right(cdf, rng.random())


@functools.lru_cache(maxsize=64)
def rank_cdf(n: int) -> tuple[float, ...]:
    """CDF of the 1/rank weights over ``n`` items."""
    weights = 1.0 / np.arange(1, n + 1)
    weights /= weights.sum()
    return choice_cdf(weights)


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``float(rng.uniform(low, high))`` for a finite range: numpy computes
    ``low + (high - low) * u`` from one ``rng.random()`` double."""
    return low + (high - low) * rng.random()
