"""The telemetry session object and the module-global fast path.

Instrumented call sites throughout the library are written against the
module-level helpers::

    from repro.telemetry import facade as telemetry

    tel = telemetry.active()
    if tel is not None:
        tel.count("net.messages")

or, for one-shot sites, the convenience wrappers ``count`` / ``gauge``
/ ``observe`` / ``span``.  When no session is installed (the default —
the "null sink" posture) these reduce to a global load plus an
``is None`` test, so the hot paths of the simulator cost nothing
measurable with telemetry off.  ``install()`` activates a session;
``session()`` scopes one to a ``with`` block and restores whatever was
active before.
"""

from __future__ import annotations

import contextlib
import typing as t

from repro.telemetry.metrics import DEFAULT_BOUNDS, MetricsRegistry
from repro.telemetry.sinks import InMemorySink, TelemetrySink
from repro.telemetry.spans import NOOP_SPAN, Span

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.spans import _NoopSpan


class Telemetry:
    """One telemetry session: a metrics registry plus a span sink."""

    def __init__(self, sink: TelemetrySink | None = None) -> None:
        self.sink: TelemetrySink = sink if sink is not None else InMemorySink()
        self.registry = MetricsRegistry()
        self._span_stack: list[Span] = []

    # -- metrics -----------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        self.registry.counter(name).inc(value)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def observe(self, name: str, value: float, bounds: t.Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.registry.histogram(name, bounds).observe(value)

    def observe_many(
        self, name: str, values: t.Any, bounds: t.Sequence[float] = DEFAULT_BOUNDS
    ) -> None:
        """Bulk histogram observation (numpy array of values)."""
        self.registry.histogram(name, bounds).observe_many(values)

    # -- tracing -----------------------------------------------------------
    def span(self, name: str) -> Span:
        return Span(self, name)

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, t.Any]]:
        return self.registry.snapshot()


#: the active session; ``None`` means telemetry is off (the default)
_active: Telemetry | None = None


def active() -> Telemetry | None:
    """The installed session, or ``None`` when telemetry is off."""
    return _active


def install(sink: TelemetrySink | None = None) -> Telemetry:
    """Install (and return) a fresh global session."""
    global _active
    _active = Telemetry(sink)
    return _active


def uninstall() -> None:
    """Back to the zero-overhead default."""
    global _active
    _active = None


@contextlib.contextmanager
def session(sink: TelemetrySink | None = None) -> t.Iterator[Telemetry]:
    """A scoped session; restores the previously-active one on exit."""
    global _active
    previous = _active
    tel = Telemetry(sink)
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


def gauge(name: str, value: float) -> None:
    tel = _active
    if tel is not None:
        tel.gauge(name, value)


def observe(name: str, value: float) -> None:
    tel = _active
    if tel is not None:
        tel.observe(name, value)


def span(name: str) -> "Span | _NoopSpan":
    tel = _active
    return tel.span(name) if tel is not None else NOOP_SPAN
