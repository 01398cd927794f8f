"""A retrying, breaker-protected, fallback-chained cost source.

Production what-if backends (plan-costing services, HTTP optimizers,
remote engines) fail and stall in ways the analytic model never does.
:class:`ResilientCostSource` decorates any
:class:`~repro.cost.whatif.CostSource` with:

* **Retries** — transient failures (:class:`TransientCostSourceError`,
  or calls observed to exceed ``call_timeout_s``) are retried up to
  ``max_retries`` times with exponential backoff and seeded jitter.
* **Circuit breaker** — after ``breaker_threshold`` consecutive
  exhausted calls the breaker opens and calls skip the backend entirely
  until a cooldown elapsed (one half-open trial then decides).
* **Fallback chain** — when the backend cannot answer (breaker open or
  retries exhausted) the call is served from (1) the *stale cache* of
  previously successful backend answers, then (2) the explicit
  ``fallbacks`` (typically an
  :class:`~repro.cost.whatif.AnalyticalCostSource`).  Only when every
  stage fails does :class:`CostSourceUnavailableError` escape.

The wrapper sits *below* :class:`~repro.cost.whatif.WhatIfOptimizer`,
so cached costs never pay the resilience machinery — only genuine
backend calls do, and those are the expensive ones anyway.

Everything is injectable (``clock``, ``sleep``, jitter ``seed``) so the
fault-injection harness (:mod:`repro.resilience.faults`) can exercise
every retry and breaker path deterministically.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import (
    CostSourceUnavailableError,
    TransientCostSourceError,
)
from repro.resilience.policy import (
    CircuitBreaker,
    ResiliencePolicy,
    ResilienceStatistics,
)

__all__ = ["ResilientCostSource"]

_OPTIONAL_METHODS = ("multi_index_cost",)


class ResilientCostSource:
    """Decorates a :class:`~repro.cost.whatif.CostSource` with retries,
    a circuit breaker, and a fallback chain.

    Parameters
    ----------
    source:
        The (possibly flaky) primary backend.
    policy:
        Retry/backoff/breaker knobs; defaults are production-ish.
    fallbacks:
        Reliable backends tried in order after the stale cache when the
        primary cannot answer.  Fallback answers are *not* written to
        the stale cache (they are reproducible on demand).
    clock / sleep:
        Injectable time sources for deterministic tests.
    seed:
        Seed of the jitter RNG (fixed by default so identical runs
        produce identical backoff sequences).
    """

    def __init__(
        self,
        source,
        *,
        policy: ResiliencePolicy | None = None,
        fallbacks: Sequence = (),
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        seed: int = 0xC0FFEE,
    ) -> None:
        self._source = source
        self._policy = policy or ResiliencePolicy()
        self._fallbacks = tuple(fallbacks)
        self._clock = clock
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._stale: dict[tuple, float] = {}
        self._statistics = ResilienceStatistics()
        # Serializes the retry/breaker/stale-cache state machine: the
        # evaluation engine may share this wrapper across worker
        # threads, and breaker transitions plus the jitter RNG are
        # order-dependent.  RLock because a fallback could itself be a
        # resilient source.
        self._lock = threading.RLock()
        # Guards the stale cache alone: clear_stale must not wait for a
        # backend call in flight under _lock.
        self._stale_lock = threading.Lock()
        self._breaker = CircuitBreaker(
            self._policy.breaker_threshold,
            self._policy.breaker_reset_s,
            clock=clock,
        )
        # Only advertise optional protocol methods some source in the
        # chain actually implements: WhatIfOptimizer feature-detects
        # multi_index_cost with getattr, and a wrapper that always
        # defines it would claim a capability the backend lacks.
        # Instance attributes shadow the class lookup.
        for method in _OPTIONAL_METHODS:
            if not self._chain_supports(method):
                setattr(self, method, None)
        # The batch method is advertised only when the PRIMARY has it:
        # a fallback-only batch capability would let whole columns
        # bypass the (possibly flaky, but authoritative) primary that
        # the per-pair path would have consulted.
        if getattr(self._source, "pair_costs", None) is None:
            self.pair_costs = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def source(self):
        """The wrapped primary backend."""
        return self._source

    @property
    def schema(self):
        """The ``schema`` of the first source in the chain that has one
        (``None`` if none does): the facade prices maintenance from it."""
        schemas = (
            getattr(source, "schema", None)
            for source in (self._source, *self._fallbacks)
        )
        return next((schema for schema in schemas if schema is not None), None)

    @property
    def policy(self) -> ResiliencePolicy:
        """The active resilience policy."""
        return self._policy

    @policy.setter
    def policy(self, policy: ResiliencePolicy) -> None:
        """Swap the policy in place (breaker thresholds included).

        Breaker state and statistics are kept: reconfiguring a live
        advisor must not forget an open breaker.
        """
        self._policy = policy
        self._breaker._threshold = policy.breaker_threshold
        self._breaker._reset_s = policy.breaker_reset_s

    @property
    def breaker(self) -> CircuitBreaker:
        """The circuit breaker (exposed for forcing in tests/ops)."""
        return self._breaker

    @property
    def statistics(self) -> ResilienceStatistics:
        """Live counters (mutated in place as calls flow through)."""
        self._statistics.breaker_state = self._breaker.state
        return self._statistics

    @property
    def stale_cache_size(self) -> int:
        """Entries available for stale-cache fallback."""
        return len(self._stale)

    def clear_stale(self, queries) -> int:
        """Drop the stale answers of ``queries`` (by content key, like
        :meth:`~repro.cost.whatif.WhatIfOptimizer.clear_cache`);
        returns how many were dropped."""
        scope = {query.cache_key for query in queries}
        with self._stale_lock:
            doomed = [key for key in self._stale if key[1] in scope]
            for key in doomed:
                del self._stale[key]
        return len(doomed)

    # ------------------------------------------------------------------
    # CostSource protocol
    # ------------------------------------------------------------------

    def query_cost(self, query, index) -> float:
        """``f_j(k)`` with retries, breaker, and fallbacks applied."""
        key = ("query_cost", query.cache_key, index)
        return self._call("query_cost", key, query, index)

    def multi_index_cost(self, query, indexes) -> float:
        """Context-based multi-index cost, resiliently priced."""
        key = ("multi_index_cost", query.cache_key, tuple(indexes))
        return self._call("multi_index_cost", key, query, indexes)

    # ------------------------------------------------------------------
    # Batch entry point (compiled-kernel backends)
    # ------------------------------------------------------------------

    def pair_costs(self, pairs) -> np.ndarray:
        """Arbitrary ``(query, index)`` pairs, resiliently priced.

        The batch is one retry/timeout/breaker unit (one backend
        invocation); on success every pair lands in the stale cache
        under its per-pair key, so batch and per-pair calls share stale
        answers.  When the batch cannot be answered, each pair falls
        back individually (stale cache, then fallback chain).
        """
        pairs = tuple(pairs)
        keys = tuple(
            ("query_cost", query.cache_key, index) for query, index in pairs
        )
        with self._lock:
            answer = self._attempt("pair_costs", (pairs,))
            if _failed(answer):
                return np.array(
                    [
                        self._fallback(
                            "query_cost", key, pair, primary_error=answer
                        )
                        for key, pair in zip(keys, pairs)
                    ],
                    dtype=np.float64,
                )
            values = np.asarray(answer, dtype=np.float64)
            with self._stale_lock:
                self._stale.update(zip(keys, values.tolist()))
            return values

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _chain_supports(self, method: str) -> bool:
        sources = (self._source, *self._fallbacks)
        return any(
            getattr(source, method, None) is not None
            for source in sources
        )

    def _call(self, method: str, key: tuple, *args) -> float:
        with self._lock:
            answer = self._attempt(method, args)
            if _failed(answer):
                return self._fallback(
                    method, key, args, primary_error=answer
                )
            with self._stale_lock:
                self._stale[key] = answer
            return answer

    def _attempt(self, method: str, args: tuple):
        """Ask the primary's ``method`` with retries, timeout detection
        and the breaker (caller holds the lock).

        Returns the primary's answer, or the error that ends the
        attempt: the last retried error, or a
        :class:`CostSourceUnavailableError` when the breaker is open.
        Returns ``None`` — touching no retry or breaker state — when the
        primary cannot price ``method`` at all (e.g. an engine without
        a multi-index model).
        """
        statistics = self._statistics
        primary = getattr(self._source, method, None)
        if primary is None:
            return None
        if not self._breaker.allows_call():
            statistics.breaker_short_circuits += 1
            return CostSourceUnavailableError("circuit breaker open")

        policy = self._policy
        last_error: Exception | None = None
        for attempt in range(policy.max_retries + 1):
            if attempt > 0:
                statistics.retries += 1
                self._backoff(attempt - 1)
            statistics.attempts += 1
            started = self._clock()
            try:
                answer = primary(*args)
            except TransientCostSourceError as error:
                statistics.transient_failures += 1
                last_error = error
                continue
            elapsed = self._clock() - started
            if (
                policy.call_timeout_s is not None
                and elapsed > policy.call_timeout_s
            ):
                statistics.timeouts += 1
                last_error = TransientCostSourceError(
                    f"{method} took {elapsed:.3f}s "
                    f"(timeout {policy.call_timeout_s}s)"
                )
                continue
            self._breaker.record_success()
            return answer

        self._breaker.record_failure()
        return last_error

    def _backoff(self, attempt: int) -> None:
        if self._policy.backoff_base_s <= 0:
            return
        seconds = self._policy.backoff_seconds(
            attempt, self._rng.random()
        )
        self._statistics.backoff_seconds_total += seconds
        self._sleep(seconds)

    def _fallback(
        self,
        method: str,
        key: tuple,
        args: tuple,
        *,
        primary_error: Exception | None,
    ) -> float:
        statistics = self._statistics
        stale = self._stale.get(key)
        if stale is not None:
            statistics.stale_cache_hits += 1
            return stale
        for fallback in self._fallbacks:
            backend = getattr(fallback, method, None)
            if backend is None:
                continue
            statistics.fallback_calls += 1
            return backend(*args)
        statistics.unavailable += 1
        raise CostSourceUnavailableError(
            f"cost backend unavailable for {method} and no fallback "
            "could price the call"
        ) from primary_error


def _failed(answer) -> bool:
    """Whether :meth:`ResilientCostSource._attempt` got no answer."""
    return answer is None or isinstance(answer, Exception)
