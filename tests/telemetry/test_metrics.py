"""Tests for counters, gauges, histograms, and the registry."""

from __future__ import annotations

import pytest

from repro.core.evaluation import EvaluationStatistics
from repro.core.sweep import SweepStatistics
from repro.cost.kernel import KernelStatistics
from repro.cost.whatif import WhatIfStatistics
from repro.exceptions import TelemetryError
from repro.resilience import (
    BreakerState,
    FaultStatistics,
    ResilienceStatistics,
)
from repro.service import ServiceStatistics
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import Histogram, HistogramSummary


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = MetricsRegistry().counter("c")
        assert counter.value == 0
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(TelemetryError):
            counter.increment(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_exact_aggregates(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.record(value)
        summary = histogram.summary()
        assert summary.count == 4
        assert summary.total == 10.0
        assert summary.mean == 2.5
        assert summary.maximum == 4.0

    def test_percentiles_from_full_reservoir(self):
        histogram = Histogram("h", capacity=1000)
        for value in range(100):
            histogram.record(float(value))
        assert histogram.percentile(0.0) == 0.0
        assert histogram.percentile(0.5) == 50.0
        assert histogram.percentile(1.0) == 99.0

    def test_reservoir_is_bounded_but_aggregates_exact(self):
        histogram = Histogram("h", capacity=8)
        for value in range(1000):
            histogram.record(float(value))
        assert len(histogram._reservoir) == 8
        assert histogram.count == 1000
        assert histogram.maximum == 999.0
        assert histogram.total == sum(range(1000))

    def test_deterministic_across_runs(self):
        def build():
            histogram = Histogram("h", capacity=16)
            for value in range(500):
                histogram.record(float(value))
            return histogram.summary()

        assert build() == build()

    def test_empty_histogram_summary(self):
        summary = Histogram("h").summary()
        assert summary == HistogramSummary(
            count=0, total=0.0, mean=0.0, p50=0.0, p95=0.0, maximum=0.0
        )

    def test_invalid_quantile_rejected(self):
        with pytest.raises(TelemetryError):
            Histogram("h").percentile(1.5)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(TelemetryError):
            Histogram("h", capacity=0)


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_type_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")
        with pytest.raises(TelemetryError):
            registry.histogram("x")

    def test_contains_and_len(self):
        registry = MetricsRegistry()
        assert "x" not in registry
        assert len(registry) == 0
        registry.counter("x")
        registry.gauge("y")
        assert "x" in registry
        assert len(registry) == 2

    def test_snapshot_is_isolated(self):
        registry = MetricsRegistry()
        registry.counter("c").increment(2)
        registry.histogram("h").record(1.0)
        snapshot = registry.snapshot()
        registry.counter("c").increment(10)
        registry.histogram("h").record(100.0)
        assert snapshot["c"] == 2
        assert snapshot["h"].count == 1

    def test_snapshot_summarizes_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("h").record(2.0)
        snapshot = registry.snapshot()
        assert isinstance(snapshot["h"], HistogramSummary)
        assert snapshot["h"].to_dict()["max"] == 2.0


# Each case: prefix, a statistics object, the gauges each class has
# always published (53 in all, values included), and the ones that
# publishing every property and field adds (exactly two).
PUBLISH_CASES = [
    (
        "whatif",
        WhatIfStatistics(calls=6, cache_hits=2, evictions=1),
        {
            "whatif.calls": 6,
            "whatif.cache_hits": 2,
            "whatif.hit_rate": 0.25,
            "whatif.evictions": 1,
        },
        {"whatif.total_requests": 8},
    ),
    (
        "kernel",
        KernelStatistics(
            compiled_workloads=2,
            compiled_queries=30,
            compile_seconds=0.25,
            batch_calls=4,
            batch_pairs=40,
            scalar_calls=3,
        ),
        {
            "kernel.compiled_workloads": 2,
            "kernel.compiled_queries": 30,
            "kernel.compile_seconds": 0.25,
            "kernel.batch_calls": 4,
            "kernel.batch_pairs": 40,
            "kernel.mean_batch_size": 10,
            "kernel.scalar_calls": 3,
        },
        {},
    ),
    (
        "evaluation",
        EvaluationStatistics(
            rounds=3,
            evaluations=10,
            reused=30,
            invalidations=7,
            priced_candidates=5,
            pruned_candidates=2,
        ),
        {
            "evaluation.rounds": 3,
            "evaluation.evaluations": 10,
            "evaluation.reused": 30,
            "evaluation.reuse_rate": 0.75,
            "evaluation.invalidations": 7,
            "evaluation.priced_candidates": 5,
            "evaluation.pruned_candidates": 2,
        },
        {},
    ),
    (
        "sweep",
        SweepStatistics(
            points=4, completed_points=3, backend_calls=120, partial=True
        ),
        {
            "sweep.points": 4,
            "sweep.completed_points": 3,
            "sweep.backend_calls": 120,
            "sweep.partial": 1,
        },
        {},
    ),
    (
        "resilience",
        ResilienceStatistics(
            attempts=10,
            retries=4,
            transient_failures=3,
            timeouts=1,
            breaker_short_circuits=2,
            stale_cache_hits=5,
            fallback_calls=6,
            unavailable=7,
            backoff_seconds_total=0.5,
            breaker_state=BreakerState.HALF_OPEN,
        ),
        {
            "resilience.attempts": 10,
            "resilience.retries": 4,
            "resilience.transient_failures": 3,
            "resilience.timeouts": 1,
            "resilience.breaker_short_circuits": 2,
            "resilience.stale_cache_hits": 5,
            "resilience.fallback_calls": 6,
            "resilience.unavailable": 7,
            "resilience.breaker_state": 1,
        },
        {"resilience.backoff_seconds_total": 0.5},
    ),
    (
        "faults",
        FaultStatistics(
            calls=9, injected_failures=2, injected_latency_spikes=1
        ),
        {
            "faults.calls": 9,
            "faults.injected_failures": 2,
            "faults.injected_latency_spikes": 1,
        },
        {},
    ),
    (
        "service",
        ServiceStatistics(
            admitted=12,
            rejected=1,
            completed=8,
            degraded=2,
            failed=3,
            warm_requests=6,
            in_flight=4,
            queue_depth=5,
            peak_in_flight=7,
            peak_queue_depth=9,
            queue_wait_seconds_total=1.5,
            wall_seconds_total=6.0,
            watchdog_cancelled=10,
            drain_forced=11,
            snapshot_writes=13,
            snapshot_restores=14,
            snapshot_corruptions=15,
            snapshot_sequence=16,
        ),
        {
            "service.admitted": 12,
            "service.rejected": 1,
            "service.completed": 8,
            "service.degraded": 2,
            "service.failed": 3,
            "service.warm_requests": 6,
            "service.warm_request_rate": 0.75,
            "service.in_flight": 4,
            "service.queue_depth": 5,
            "service.peak_in_flight": 7,
            "service.peak_queue_depth": 9,
            "service.queue_wait_seconds_total": 1.5,
            "service.wall_seconds_total": 6.0,
            "service.watchdog_cancelled": 10,
            "service.drain_forced": 11,
            "service.snapshot_writes": 13,
            "service.snapshot_restores": 14,
            "service.snapshot_corruptions": 15,
            "service.snapshot_sequence": 16,
        },
        {},
    ),
]


class TestPublish:
    @pytest.mark.parametrize(
        "prefix, statistics, gauges, added",
        PUBLISH_CASES,
        ids=[case[0] for case in PUBLISH_CASES],
    )
    def test_statistics_become_gauges(
        self, prefix, statistics, gauges, added
    ):
        registry = MetricsRegistry()
        registry.publish(prefix, statistics)
        assert registry.snapshot() == {**gauges, **added}

    def test_bools_and_enums_publish_as_numbers(self):
        registry = MetricsRegistry()
        registry.publish("sweep", SweepStatistics(partial=False))
        registry.publish(
            "resilience",
            ResilienceStatistics(breaker_state=BreakerState.OPEN),
        )
        snapshot = registry.snapshot()
        assert snapshot["sweep.partial"] == 0
        assert snapshot["resilience.breaker_state"] == 2
        assert all(isinstance(value, float) for value in snapshot.values())
