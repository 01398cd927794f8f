"""Deterministic fault injection for cost backends.

Testing a resilience layer against a genuinely flaky service is itself
flaky; this module makes every failure mode *scripted and seeded* so
retry, timeout, breaker, and fallback paths are exactly reproducible:

* seeded random transient failures (``failure_rate``),
* seeded latency spikes that trip timeout detection (``spike_rate`` /
  ``spike_latency_s`` against a :class:`ManualClock`),
* explicit scripts (``fail-N-then-succeed`` and arbitrary outcome
  sequences) for directed tests of a specific path.

The injector wraps any :class:`~repro.cost.whatif.CostSource` and is
also usable from the CLI (``--fault-rate``) and CI stress jobs to run
the full integration suite under injected faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator

from repro.exceptions import ExperimentError, TransientCostSourceError

__all__ = [
    "FaultInjectingCostSource",
    "FaultStatistics",
    "ManualClock",
    "fail_n_then_succeed",
]

OK = "ok"
FAIL = "fail"
SLOW = "slow"
_OUTCOMES = (OK, FAIL, SLOW)


class ManualClock:
    """A hand-advanced monotonic clock shared by injector and wrapper.

    Pass the same instance as ``clock=`` to both the
    :class:`FaultInjectingCostSource` and the
    :class:`~repro.resilience.ResilientCostSource` (and as ``sleep=``
    via :meth:`sleep`): latency spikes and backoff sleeps then advance
    simulated time instantly, keeping fault tests fast *and* exact.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        """Move the clock forward."""
        self.now += seconds

    def sleep(self, seconds: float) -> None:
        """Drop-in for ``time.sleep`` that advances simulated time."""
        self.advance(seconds)


def fail_n_then_succeed(failures: int) -> Iterator[str]:
    """Script: the first ``failures`` calls fail, the rest succeed."""
    if failures < 0:
        raise ExperimentError(
            f"failures must be >= 0, got {failures}"
        )
    return chain(repeat(FAIL, failures), repeat(OK))


@dataclass
class FaultStatistics:
    """Counters of what the injector did (telemetry-bridgeable)."""

    calls: int = 0
    injected_failures: int = 0
    injected_latency_spikes: int = 0


class FaultInjectingCostSource:
    """Wraps a cost source and injects deterministic faults.

    Parameters
    ----------
    source:
        The healthy backend whose answers are returned on success.
    failure_rate:
        Probability (seeded) that a call raises
        :class:`TransientCostSourceError` instead of answering.
    spike_rate / spike_latency_s:
        Probability (seeded) that a successful call takes
        ``spike_latency_s`` of (simulated) extra time — combined with a
        ``call_timeout_s`` policy this exercises the timeout path.
    base_latency_s:
        Simulated time every call takes, spike or not.
    script:
        Explicit outcome sequence (tokens ``"ok"``, ``"fail"``,
        ``"slow"``; see :func:`fail_n_then_succeed`).  When given, it
        takes precedence over the random rates; an exhausted finite
        script means "healthy from here on".
    seed:
        Seed of the fault RNG; identical seeds replay identical fault
        sequences.
    clock:
        A :class:`ManualClock` to advance for latency (``None`` means
        latency is not simulated).
    """

    def __init__(
        self,
        source,
        *,
        failure_rate: float = 0.0,
        spike_rate: float = 0.0,
        spike_latency_s: float = 0.0,
        base_latency_s: float = 0.0,
        script: Iterable[str] | None = None,
        seed: int = 0,
        clock: ManualClock | None = None,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ExperimentError(
                f"failure_rate must be in [0, 1], got {failure_rate}"
            )
        if not 0.0 <= spike_rate <= 1.0:
            raise ExperimentError(
                f"spike_rate must be in [0, 1], got {spike_rate}"
            )
        self._source = source
        self._failure_rate = failure_rate
        self._spike_rate = spike_rate
        self._spike_latency_s = spike_latency_s
        self._base_latency_s = base_latency_s
        self._script = iter(script) if script is not None else None
        self._rng = random.Random(seed)
        self._clock = clock
        self.statistics = FaultStatistics()
        # Mirror the wrapped source's optional capabilities (see
        # ResilientCostSource for why over-advertising breaks
        # feature detection in WhatIfOptimizer).  The batch method is
        # mirrored too, so vectorized pricing still flows through the
        # injector instead of silently bypassing it.
        for method in ("maintenance_cost", "multi_index_cost", "pair_costs"):
            if getattr(source, method, None) is None:
                setattr(self, method, None)

    @property
    def source(self):
        """The wrapped healthy backend."""
        return self._source

    def query_cost(self, query, index) -> float:
        """Answer ``f_j(k)``, unless the fault plan says otherwise."""
        self._inject("query_cost")
        return self._source.query_cost(query, index)

    def maintenance_cost(self, query, index) -> float:
        """Maintenance cost with fault injection applied."""
        self._inject("maintenance_cost")
        return self._source.maintenance_cost(query, index)

    def multi_index_cost(self, query, indexes) -> float:
        """Multi-index cost with fault injection applied."""
        self._inject("multi_index_cost")
        return self._source.multi_index_cost(query, indexes)

    def pair_costs(self, pairs):
        """A pair batch is one backend invocation, so it consumes
        exactly one fault-plan outcome (one RNG draw or script token) —
        mirroring how the resilient wrapper treats a batch as one
        retry/timeout unit."""
        self._inject("pair_costs")
        return self._source.pair_costs(pairs)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _next_outcome(self) -> str:
        if self._script is not None:
            token = next(self._script, OK)
            if token not in _OUTCOMES:
                raise ExperimentError(
                    f"unknown fault script token {token!r}; expected "
                    f"one of {', '.join(_OUTCOMES)}"
                )
            return token
        roll = self._rng.random()
        if roll < self._failure_rate:
            return FAIL
        if roll < self._failure_rate + self._spike_rate:
            return SLOW
        return OK

    def _inject(self, method: str) -> None:
        self.statistics.calls += 1
        outcome = self._next_outcome()
        if self._clock is not None and self._base_latency_s:
            self._clock.advance(self._base_latency_s)
        if outcome == FAIL:
            self.statistics.injected_failures += 1
            raise TransientCostSourceError(
                f"injected transient failure in {method} "
                f"(call #{self.statistics.calls})"
            )
        if outcome == SLOW:
            self.statistics.injected_latency_spikes += 1
            if self._clock is not None:
                self._clock.advance(self._spike_latency_s)
