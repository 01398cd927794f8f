"""Tests for the resilience policy and circuit breaker."""

from __future__ import annotations

import pytest

from repro.exceptions import BudgetError
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    ManualClock,
    ResiliencePolicy,
    ResilienceStatistics,
)
from repro.telemetry import MetricsRegistry


class TestResiliencePolicy:
    def test_defaults_are_valid(self):
        policy = ResiliencePolicy()
        assert policy.max_retries == 3
        assert policy.breaker_threshold == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
            {"backoff_cap_s": -1.0},
            {"jitter": 1.5},
            {"jitter": -0.1},
            {"call_timeout_s": 0.0},
            {"breaker_threshold": 0},
            {"breaker_reset_s": -1.0},
        ],
    )
    def test_rejects_invalid_knobs(self, kwargs):
        with pytest.raises(BudgetError):
            ResiliencePolicy(**kwargs)

    def test_backoff_grows_exponentially(self):
        policy = ResiliencePolicy(
            backoff_base_s=0.1, backoff_cap_s=100.0, jitter=0.0
        )
        assert policy.backoff_seconds(0, 0.0) == pytest.approx(0.1)
        assert policy.backoff_seconds(1, 0.0) == pytest.approx(0.2)
        assert policy.backoff_seconds(3, 0.0) == pytest.approx(0.8)

    def test_backoff_respects_cap(self):
        policy = ResiliencePolicy(
            backoff_base_s=1.0, backoff_cap_s=2.5, jitter=0.0
        )
        assert policy.backoff_seconds(10, 0.0) == 2.5

    def test_jitter_adds_up_to_the_fraction(self):
        policy = ResiliencePolicy(
            backoff_base_s=1.0, backoff_cap_s=100.0, jitter=0.5
        )
        assert policy.backoff_seconds(0, 1.0) == pytest.approx(1.5)
        assert policy.backoff_seconds(0, 0.0) == pytest.approx(1.0)


class TestCircuitBreaker:
    def make(self, threshold=3, reset_s=10.0):
        clock = ManualClock()
        return CircuitBreaker(threshold, reset_s, clock=clock), clock

    def test_starts_closed(self):
        breaker, _ = self.make()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allows_call()

    def test_trips_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allows_call()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allows_call()
        assert breaker.open_count == 1

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_cooldown(self):
        breaker, clock = self.make(threshold=1, reset_s=10.0)
        breaker.record_failure()
        assert not breaker.allows_call()
        clock.advance(10.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allows_call()

    def test_half_open_success_closes(self):
        breaker, clock = self.make(threshold=1, reset_s=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        breaker, clock = self.make(threshold=3, reset_s=5.0)
        breaker.force_open()
        clock.advance(5.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()  # single failure suffices in half-open
        assert breaker.state is BreakerState.OPEN
        assert breaker.open_count == 2

    def test_force_open_and_closed(self):
        breaker, _ = self.make()
        breaker.force_open()
        assert not breaker.allows_call()
        breaker.force_closed()
        assert breaker.state is BreakerState.CLOSED


class TestResilienceStatistics:
    def test_copy_is_independent(self):
        statistics = ResilienceStatistics(retries=3)
        snapshot = statistics.copy()
        statistics.retries += 1
        assert snapshot.retries == 3

    def test_publish_bridges_gauges(self):
        registry = MetricsRegistry()
        statistics = ResilienceStatistics(
            attempts=10,
            retries=4,
            transient_failures=3,
            timeouts=1,
            breaker_short_circuits=2,
            stale_cache_hits=5,
            fallback_calls=6,
            unavailable=0,
            breaker_state=BreakerState.OPEN,
        )
        registry.publish("resilience", statistics)
        snapshot = registry.snapshot()
        assert snapshot["resilience.attempts"] == 10
        assert snapshot["resilience.retries"] == 4
        assert snapshot["resilience.transient_failures"] == 3
        assert snapshot["resilience.timeouts"] == 1
        assert snapshot["resilience.breaker_short_circuits"] == 2
        assert snapshot["resilience.stale_cache_hits"] == 5
        assert snapshot["resilience.fallback_calls"] == 6
        assert snapshot["resilience.breaker_state"] == 2.0
