"""Counters, gauges, and histograms with deterministic snapshots.

Metric values are plain Python state: incrementing a counter is a float
add, observing a histogram is a bisect into fixed buckets.  Every value
recorded is a simulated quantity — nothing here reads a host clock — so
two same-seed runs produce identical snapshots by construction, the
property the bench anchor files assert.
"""

from __future__ import annotations

import typing as t
from bisect import bisect_left

from repro.errors import ConfigurationError

#: default histogram bucket upper bounds: one decade per bucket across
#: the whole range this simulator produces (microsecond latencies up to
#: multi-day occupations, and counts up to 10^7).
DEFAULT_BOUNDS: tuple[float, ...] = tuple(10.0**e for e in range(-7, 8))


class Counter:
    """A monotonically-increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise ConfigurationError(f"counter {self.name}: negative increment {value}")
        self.value += value

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-written value plus the extremes seen along the way."""

    __slots__ = ("name", "value", "min", "max", "n")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.n = 0

    def set(self, value: float) -> None:
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.n += 1

    def snapshot(self) -> dict[str, float]:
        if not self.n:
            return {"last": 0.0, "min": 0.0, "max": 0.0, "n": 0}
        return {"last": self.value, "min": self.min, "max": self.max, "n": self.n}


class Histogram:
    """Fixed-bucket distribution: count, sum, extremes, per-bucket tallies.

    Buckets are cumulative-free: ``buckets[i]`` counts observations
    ``<= bounds[i]`` and greater than ``bounds[i-1]``; one overflow
    bucket catches the rest.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: t.Sequence[float] = DEFAULT_BOUNDS) -> None:
        if list(bounds) != sorted(bounds) or not bounds:
            raise ConfigurationError(f"histogram {name}: bounds must be sorted and non-empty")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.buckets = [0] * (len(self.bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values: t.Any) -> None:
        """Bulk :meth:`observe` over an array of values.

        Buckets/extremes are computed vectorised; the running ``total``
        is still accumulated element-by-element in input order so the
        result is bit-identical to observing the values one at a time —
        same-seed determinism must not depend on which call the
        instrumented site used.
        """
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        if not values.size:
            return
        idx = np.searchsorted(np.asarray(self.bounds), values, side="left")
        counts = np.bincount(idx, minlength=len(self.buckets))
        buckets = self.buckets
        for i in np.nonzero(counts)[0]:
            buckets[i] += int(counts[i])
        self.count += int(values.size)
        for v in values.tolist():
            self.total += v
        lo = float(values.min())
        hi = float(values.max())
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, t.Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            # only non-empty buckets, keyed by upper bound: compact and
            # stable under bound-list extensions
            "buckets": {
                ("inf" if i == len(self.bounds) else repr(self.bounds[i])): n
                for i, n in enumerate(self.buckets)
                if n
            },
        }


class MetricsRegistry:
    """Get-or-create store for all three metric kinds."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create -----------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, t.Any]]:
        """Deterministic nested dict: sorted names, plain JSON types."""
        return {
            "counters": {n: self._counters[n].snapshot() for n in sorted(self._counters)},
            "gauges": {n: self._gauges[n].snapshot() for n in sorted(self._gauges)},
            "histograms": {
                n: self._histograms[n].snapshot() for n in sorted(self._histograms)
            },
        }
