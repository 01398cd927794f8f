"""Counters, gauges, and lightweight histograms.

The registry is the numeric half of the observability layer (the other
half is the span/event stream of :mod:`repro.telemetry.tracing` and
:mod:`repro.telemetry.events`).  Everything is stdlib-only and cheap
enough to live inside the selection hot loops: a counter increment is an
integer addition, a histogram record is a reservoir update with a
deterministic (seeded) replacement policy so snapshots are reproducible
across runs.

Instruments are created lazily and keyed by name; asking for the same
name twice returns the same instrument, asking for the same name with a
different instrument type raises :class:`~repro.exceptions.TelemetryError`.

Subsystems keep their counters in plain ``*Statistics`` dataclasses and
bridge them into a registry through :meth:`MetricsRegistry.publish`,
the one rule that turns a statistics object into gauges.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from dataclasses import dataclass

from repro.exceptions import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSummary",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time numeric metric (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)


@dataclass(frozen=True)
class HistogramSummary:
    """Immutable snapshot of a histogram's distribution."""

    count: int
    total: float
    mean: float
    p50: float
    p95: float
    maximum: float

    def to_dict(self) -> dict:
        """Plain-dict form for JSON sinks."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "max": self.maximum,
        }


class Histogram:
    """Fixed-size reservoir histogram with exact count/total/max.

    Percentiles are estimated from a uniform reservoir sample of at most
    ``capacity`` observations (Vitter's Algorithm R with a fixed seed, so
    two identical runs produce identical snapshots); count, total, mean,
    and max are exact regardless of sample size.
    """

    __slots__ = ("name", "capacity", "count", "total", "maximum",
                 "_reservoir", "_rng")

    def __init__(self, name: str, capacity: int = 256) -> None:
        if capacity < 1:
            raise TelemetryError(
                f"histogram capacity must be >= 1, got {capacity}"
            )
        self.name = name
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0
        self._reservoir: list[float] = []
        self._rng = random.Random(0x5EED)

    def record(self, value: float) -> None:
        """Add one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.count == 1 or value > self.maximum:
            self.maximum = value
        if len(self._reservoir) < self.capacity:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._reservoir[slot] = value

    def percentile(self, quantile: float) -> float:
        """Estimated value at ``quantile`` in [0, 1] (0 when empty)."""
        if not 0.0 <= quantile <= 1.0:
            raise TelemetryError(
                f"quantile must be in [0, 1], got {quantile}"
            )
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        position = min(
            int(quantile * len(ordered)), len(ordered) - 1
        )
        return ordered[position]

    def summary(self) -> HistogramSummary:
        """Snapshot of the distribution (isolated from later records)."""
        return HistogramSummary(
            count=self.count,
            total=self.total,
            mean=self.total / self.count if self.count else 0.0,
            p50=self.percentile(0.5),
            p95=self.percentile(0.95),
            maximum=self.maximum,
        )


class MetricsRegistry:
    """Named home of every counter, gauge, and histogram of one run."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, *args)
            self._instruments[name] = instrument
            return instrument
        if not isinstance(instrument, kind):
            raise TelemetryError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str, capacity: int = 256) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        return self._get(name, Histogram, capacity)

    def publish(self, prefix: str, statistics) -> None:
        """Set the gauge ``<prefix>.<name>`` for every dataclass field
        and every property of a ``*Statistics`` object.

        Enums publish their ``.value`` and bools publish as 0/1.
        """
        cls = type(statistics)
        names = [field.name for field in dataclasses.fields(cls)] + [
            name
            for name in dir(cls)
            if isinstance(getattr(cls, name), property)
        ]
        for name in names:
            value = getattr(statistics, name)
            if isinstance(value, enum.Enum):
                value = value.value
            self.gauge(f"{prefix}.{name}").set(value)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict[str, int | float | HistogramSummary]:
        """Immutable view of all current values.

        Counters and gauges snapshot to plain numbers, histograms to
        :class:`HistogramSummary`; mutating the registry afterwards does
        not change an already-taken snapshot.
        """
        view: dict[str, int | float | HistogramSummary] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                view[name] = instrument.summary()
            else:
                view[name] = instrument.value
        return view
