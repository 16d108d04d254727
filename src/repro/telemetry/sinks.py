"""Where telemetry goes: the sink protocol and its two implementations.

A sink receives finished :class:`~repro.telemetry.spans.SpanRecord`
objects.  Metric state lives on the :class:`~repro.telemetry.facade
.Telemetry` session itself (metrics are aggregates, spans are events).

The *null sink* is the default posture of the whole subsystem: when no
telemetry session is installed, every instrumented call site reduces to
one ``is None`` check (see :mod:`repro.telemetry.facade`), which is how
the tier-1 benchmarks stay unaffected.  :class:`NullSink` exists for
the rarer case of an *installed* session that should still discard
span events while keeping metric aggregation on.
"""

from __future__ import annotations

import typing as t

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.spans import SpanRecord


class TelemetrySink:
    """Base sink: subclass and override :meth:`record_span`."""

    def record_span(self, record: "SpanRecord") -> None:
        raise NotImplementedError


class NullSink(TelemetrySink):
    """Discards every span event."""

    def record_span(self, record: "SpanRecord") -> None:
        pass


class CallbackSink(TelemetrySink):
    """Forwards each finished span to a callback as it completes.

    The seam streaming progress lines is built on: ``repro simulate``
    installs a session whose sink turns span completions into the
    CLI's progress lines.
    ``min_elapsed_s`` bounds the flood — only regions at least that
    long are forwarded (0.0 forwards everything).
    """

    def __init__(
        self,
        callback: t.Callable[["SpanRecord"], None],
        min_elapsed_s: float = 0.0,
    ) -> None:
        self.callback = callback
        self.min_elapsed_s = min_elapsed_s

    def record_span(self, record: "SpanRecord") -> None:
        if record.elapsed_s >= self.min_elapsed_s:
            self.callback(record)


class InMemorySink(TelemetrySink):
    """Keeps every finished span in order (tests, bench reports)."""

    def __init__(self) -> None:
        self.spans: list["SpanRecord"] = []

    def record_span(self, record: "SpanRecord") -> None:
        self.spans.append(record)

    def by_name(self, name: str) -> list["SpanRecord"]:
        return [s for s in self.spans if s.name == name]
