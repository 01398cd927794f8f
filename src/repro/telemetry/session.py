"""The per-run telemetry session and its disabled twin.

A :class:`Telemetry` object bundles the three observability primitives —
metrics registry, tracer, and step-event log — plus the sinks they feed.
Algorithms take one through their ``telemetry=`` keyword; the default is
:data:`NULL_TELEMETRY`, whose tracer is the module-level no-op tracer and
whose event/metric methods return immediately, so uninstrumented runs pay
(near) nothing.

Typical enabled use::

    sink = JsonLinesSink("trace.jsonl")
    telemetry = Telemetry(sinks=(sink,))
    result = ExtendAlgorithm(optimizer, telemetry=telemetry).select(
        workload, budget)
    telemetry.close()          # flushes a final metrics record
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.events import StepEvent
from repro.telemetry.metrics import HistogramSummary, MetricsRegistry
from repro.telemetry.sinks import TelemetrySink
from repro.telemetry.tracing import NO_OP_TRACER, Span, Tracer

__all__ = ["Telemetry", "TelemetrySnapshot", "NULL_TELEMETRY"]


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable view of everything one run recorded."""

    metrics: dict[str, int | float | HistogramSummary] = field(
        default_factory=dict
    )
    spans: tuple[Span, ...] = ()
    events: tuple[StepEvent, ...] = ()

    @property
    def empty(self) -> bool:
        """True when nothing was recorded (e.g. disabled telemetry)."""
        return not (self.metrics or self.spans or self.events)

    def chosen_events(self) -> tuple[StepEvent, ...]:
        """The applied (not merely considered) steps, in order."""
        return tuple(event for event in self.events if event.chosen)


class Telemetry:
    """One run's metrics registry, tracer, step-event log, and sinks."""

    enabled = True

    def __init__(self, sinks: tuple[TelemetrySink, ...] = ()) -> None:
        self.sinks = tuple(sinks)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(registry=self.metrics, sinks=self.sinks)
        self.events: list[StepEvent] = []
        self._closed = False

    def emit_step(self, event: StepEvent) -> None:
        """Record one step event and forward it to every sink."""
        self.events.append(event)
        record = event.to_dict()
        for sink in self.sinks:
            sink.emit(record)

    def snapshot(self) -> TelemetrySnapshot:
        """Immutable view of metrics, finished spans, and events."""
        return TelemetrySnapshot(
            metrics=self.metrics.snapshot(),
            spans=tuple(self.tracer.spans),
            events=tuple(self.events),
        )

    def close(self) -> None:
        """Emit a final metrics record and close owned sinks."""
        if self._closed:
            return
        self._closed = True
        final = {
            "type": "metrics",
            "metrics": {
                name: value.to_dict()
                if isinstance(value, HistogramSummary)
                else value
                for name, value in self.metrics.snapshot().items()
            },
        }
        for sink in self.sinks:
            sink.emit(final)
            sink.close()


class _DisabledTelemetry:
    """Telemetry drop-in whose every operation is (near) free.

    Shares the module-level :data:`~repro.telemetry.tracing.NO_OP_TRACER`
    and a single throwaway registry; instrumented code guards metric and
    event emission behind ``if telemetry.enabled:`` so the registry is
    never touched on hot paths.
    """

    enabled = False
    sinks: tuple = ()
    events: tuple = ()
    tracer = NO_OP_TRACER

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    def emit_step(self, event: StepEvent) -> None:
        pass

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot()

    def close(self) -> None:
        pass


NULL_TELEMETRY = _DisabledTelemetry()
"""Shared disabled session — the default ``telemetry=`` everywhere."""
