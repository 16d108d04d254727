"""The telemetry session object and the module-global fast path.

Instrumented call sites throughout the library are written against the
module-level helpers::

    from repro.telemetry import facade as telemetry

    tel = telemetry.active()
    if tel is not None:
        tel.count("net.messages")

or, for one-shot sites, the convenience wrapper ``count``.  When no
session is active (the default) these reduce
to a global load plus an ``is None`` test, so the hot paths of the
simulator cost nothing measurable with telemetry off.  ``session()``
scopes one to a ``with`` block and restores whatever was active
before.
"""

from __future__ import annotations

import contextlib
import typing as t

from repro.telemetry.metrics import MetricsRegistry


class Telemetry:
    """One telemetry session: a metrics registry."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    # -- metrics -----------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        self.registry.counter(name).inc(value)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.registry.histogram(name).observe(value)

    def observe_many(self, name: str, values: t.Any) -> None:
        """Bulk histogram observation (numpy array of values)."""
        self.registry.histogram(name).observe_many(values)

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, t.Any]]:
        return self.registry.snapshot()


#: the active session; ``None`` means telemetry is off (the default)
_active: Telemetry | None = None


def active() -> Telemetry | None:
    """The active session, or ``None`` when telemetry is off."""
    return _active


@contextlib.contextmanager
def session() -> t.Iterator[Telemetry]:
    """A scoped session; restores the previously-active one on exit."""
    global _active
    previous = _active
    tel = Telemetry()
    _active = tel
    try:
        yield tel
    finally:
        _active = previous


# -- one-shot convenience wrappers (None-check inlined) --------------------
def count(name: str, value: float = 1.0) -> None:
    tel = _active
    if tel is not None:
        tel.count(name, value)
