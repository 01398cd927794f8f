"""Resilience policy knobs, counters, and the circuit breaker.

The policy object is the single bundle of tuning knobs that the advisor
and CLI expose (``resilience=``, ``--max-retries`` …); the breaker is a
classic three-state machine (closed → open → half-open) that protects a
flaky cost backend from retry storms and trips calls straight to the
fallback chain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.exceptions import BudgetError

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ResiliencePolicy",
    "ResilienceStatistics",
]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Tuning knobs of :class:`~repro.resilience.ResilientCostSource`.

    Attributes
    ----------
    max_retries:
        Retries *after* the first attempt of each backend call.
    backoff_base_s:
        Sleep before retry ``n`` is ``backoff_base_s * 2**n``, plus
        jitter.  0 disables sleeping (useful in tests).
    backoff_cap_s:
        Upper bound on any single backoff sleep.
    jitter:
        Uniform random fraction added to each backoff (0.1 = up to
        +10%), decorrelating retry storms across concurrent advisors.
    call_timeout_s:
        A backend call observed to take longer than this counts as a
        transient failure (``None`` disables timeout detection).
    breaker_threshold:
        Consecutive backend-call failures (retries exhausted) that trip
        the breaker open.
    breaker_reset_s:
        Seconds the breaker stays open before allowing one half-open
        trial call.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 1.0
    jitter: float = 0.1
    call_timeout_s: float | None = None
    breaker_threshold: int = 5
    breaker_reset_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise BudgetError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise BudgetError("backoff times must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise BudgetError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.call_timeout_s is not None and self.call_timeout_s <= 0:
            raise BudgetError(
                f"call_timeout_s must be > 0, got {self.call_timeout_s}"
            )
        if self.breaker_threshold < 1:
            raise BudgetError(
                "breaker_threshold must be >= 1, got "
                f"{self.breaker_threshold}"
            )
        if self.breaker_reset_s < 0:
            raise BudgetError(
                f"breaker_reset_s must be >= 0, got {self.breaker_reset_s}"
            )

    def backoff_seconds(self, attempt: int, random_unit: float) -> float:
        """Backoff before retry ``attempt`` (0-based), jitter applied."""
        base = self.backoff_base_s * (2.0**attempt)
        return min(base * (1.0 + self.jitter * random_unit),
                   self.backoff_cap_s)


class BreakerState(enum.Enum):
    """Circuit-breaker states (values are the telemetry gauge levels)."""

    CLOSED = 0
    HALF_OPEN = 1
    OPEN = 2


class CircuitBreaker:
    """Three-state circuit breaker over consecutive call failures.

    ``record_failure`` counts *exhausted* backend calls (a call that
    succeeded after retries is a success).  Once ``threshold``
    consecutive failures accumulate, the breaker opens: calls skip the
    backend entirely until ``reset_s`` elapsed, then one half-open trial
    is allowed — its success closes the breaker, its failure re-opens it.
    """

    def __init__(
        self,
        threshold: int,
        reset_s: float,
        *,
        clock,
    ) -> None:
        self._threshold = threshold
        self._reset_s = reset_s
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.open_count = 0
        """How many times the breaker tripped open (telemetry)."""

    @property
    def state(self) -> BreakerState:
        """Current state, promoting OPEN to HALF_OPEN after the reset."""
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self._reset_s
        ):
            self._state = BreakerState.HALF_OPEN
        return self._state

    def allows_call(self) -> bool:
        """Whether a backend call may be attempted right now."""
        return self.state is not BreakerState.OPEN

    def record_success(self) -> None:
        """A backend call completed: reset failures, close the breaker."""
        self._consecutive_failures = 0
        self._state = BreakerState.CLOSED

    def record_failure(self) -> None:
        """A backend call failed for good (retries exhausted)."""
        self._consecutive_failures += 1
        if (
            self.state is BreakerState.HALF_OPEN
            or self._consecutive_failures >= self._threshold
        ):
            self._trip()

    def force_open(self) -> None:
        """Trip the breaker open (tests, operator kill switch)."""
        self._trip()

    def force_closed(self) -> None:
        """Reset to closed (operator override after backend recovery)."""
        self.record_success()

    def _trip(self) -> None:
        if self._state is not BreakerState.OPEN:
            self.open_count += 1
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()


@dataclass
class ResilienceStatistics:
    """Counters of one resilient cost source's lifetime.

    Mirrors :class:`~repro.cost.whatif.WhatIfStatistics` so the counters
    bridge into the telemetry registry the same way.
    """

    attempts: int = 0
    retries: int = 0
    transient_failures: int = 0
    timeouts: int = 0
    breaker_short_circuits: int = 0
    stale_cache_hits: int = 0
    fallback_calls: int = 0
    unavailable: int = 0
    backoff_seconds_total: float = 0.0
    breaker_state: BreakerState = field(default=BreakerState.CLOSED)

    def copy(self) -> ResilienceStatistics:
        """Point-in-time copy (the live object mutates in place)."""
        return ResilienceStatistics(**vars(self))
