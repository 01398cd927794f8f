"""Tests for :class:`repro.resilience.ResilientCostSource`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.kernel import VectorizedCostSource
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.exceptions import (
    CostSourceUnavailableError,
    TransientCostSourceError,
)
from repro.indexes.index import Index
from repro.resilience import (
    BreakerState,
    FaultInjectingCostSource,
    ManualClock,
    ResiliencePolicy,
    ResilientCostSource,
    fail_n_then_succeed,
)

NO_SLEEP = ResiliencePolicy(backoff_base_s=0.0)


@pytest.fixture
def analytical(tiny_workload):
    return AnalyticalCostSource(CostModel(tiny_workload.schema))


@pytest.fixture
def a_query(tiny_workload):
    return tiny_workload.queries[0]


class _CountingFallback:
    """A fallback source that counts the pairs it is asked to price."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def query_cost(self, query, index):
        self.calls += 1
        return self.inner.query_cost(query, index)


class TestHappyPath:
    def test_transparent_when_backend_is_healthy(
        self, analytical, tiny_workload
    ):
        resilient = ResilientCostSource(analytical, policy=NO_SLEEP)
        for query in tiny_workload:
            assert resilient.query_cost(query, None) == (
                analytical.query_cost(query, None)
            )
        statistics = resilient.statistics
        assert statistics.retries == 0
        assert statistics.fallback_calls == 0
        assert statistics.breaker_state is BreakerState.CLOSED

    def test_advertises_optional_methods_of_the_chain(self, analytical):
        resilient = ResilientCostSource(analytical)
        assert callable(getattr(resilient, "multi_index_cost", None))

    def test_schema_is_the_first_in_the_chain(self, tiny_workload):
        """Only the fallback kernel knows the schema, so the facade
        prices maintenance from the kernel's."""
        kernel = VectorizedCostSource(tiny_workload.schema)
        flaky = FaultInjectingCostSource(
            AnalyticalCostSource(CostModel(tiny_workload.schema))
        )
        resilient = ResilientCostSource(flaky, fallbacks=(kernel,))
        assert getattr(flaky, "schema", None) is None
        assert resilient.schema is kernel.schema

    def test_hides_methods_nobody_supports(self, a_query):
        class Minimal:
            def query_cost(self, query, index):
                return 2.0

        resilient = ResilientCostSource(Minimal(), policy=NO_SLEEP)
        assert getattr(resilient, "multi_index_cost", None) is None
        # Nor does it know a schema, so the facade charges no
        # maintenance instead of calling a phantom model.
        assert resilient.schema is None
        optimizer = WhatIfOptimizer(resilient)
        assert optimizer.sequential_cost(a_query) == 2.0


class TestRetries:
    def test_retries_through_transient_failures(
        self, analytical, a_query
    ):
        flaky = FaultInjectingCostSource(
            analytical, script=fail_n_then_succeed(2)
        )
        resilient = ResilientCostSource(
            flaky, policy=ResiliencePolicy(max_retries=3,
                                           backoff_base_s=0.0)
        )
        cost = resilient.query_cost(a_query, None)
        assert cost == analytical.query_cost(a_query, None)
        assert resilient.statistics.retries == 2
        assert resilient.statistics.transient_failures == 2

    def test_exhausted_retries_raise_without_fallback(
        self, analytical, a_query
    ):
        flaky = FaultInjectingCostSource(analytical, failure_rate=1.0)
        resilient = ResilientCostSource(
            flaky, policy=ResiliencePolicy(max_retries=2,
                                           backoff_base_s=0.0)
        )
        with pytest.raises(CostSourceUnavailableError):
            resilient.query_cost(a_query, None)
        assert resilient.statistics.attempts == 3  # 1 try + 2 retries
        assert resilient.statistics.unavailable == 1

    def test_backoff_sleeps_grow_exponentially(
        self, analytical, a_query
    ):
        sleeps: list[float] = []
        flaky = FaultInjectingCostSource(
            analytical, script=fail_n_then_succeed(3)
        )
        resilient = ResilientCostSource(
            flaky,
            policy=ResiliencePolicy(
                max_retries=3,
                backoff_base_s=0.1,
                backoff_cap_s=10.0,
                jitter=0.0,
            ),
            sleep=sleeps.append,
        )
        resilient.query_cost(a_query, None)
        assert sleeps == pytest.approx([0.1, 0.2, 0.4])

    def test_jitter_is_seeded_and_reproducible(
        self, analytical, a_query
    ):
        def run():
            sleeps: list[float] = []
            flaky = FaultInjectingCostSource(
                analytical, script=fail_n_then_succeed(3)
            )
            resilient = ResilientCostSource(
                flaky,
                policy=ResiliencePolicy(
                    max_retries=3, backoff_base_s=0.1, jitter=0.5
                ),
                sleep=sleeps.append,
                seed=99,
            )
            resilient.query_cost(a_query, None)
            return sleeps

        first, second = run(), run()
        assert first == second
        assert first != [0.1, 0.2, 0.4]  # jitter actually applied


class TestTimeouts:
    def test_slow_calls_count_as_transient_failures(
        self, analytical, a_query
    ):
        clock = ManualClock()
        flaky = FaultInjectingCostSource(
            analytical,
            script=["slow", "ok"],
            spike_latency_s=5.0,
            clock=clock,
        )
        resilient = ResilientCostSource(
            flaky,
            policy=ResiliencePolicy(
                max_retries=1, backoff_base_s=0.0, call_timeout_s=1.0
            ),
            clock=clock,
        )
        cost = resilient.query_cost(a_query, None)
        assert cost == analytical.query_cost(a_query, None)
        assert resilient.statistics.timeouts == 1
        assert resilient.statistics.retries == 1

    def test_fast_calls_do_not_time_out(self, analytical, a_query):
        clock = ManualClock()
        source = FaultInjectingCostSource(
            analytical, base_latency_s=0.1, clock=clock
        )
        resilient = ResilientCostSource(
            source,
            policy=ResiliencePolicy(
                backoff_base_s=0.0, call_timeout_s=1.0
            ),
            clock=clock,
        )
        resilient.query_cost(a_query, None)
        assert resilient.statistics.timeouts == 0


class TestFallbackChain:
    def test_stale_cache_serves_known_answers(self, analytical, a_query):
        flaky = FaultInjectingCostSource(
            analytical, script=["ok", "fail"]
        )
        resilient = ResilientCostSource(
            flaky, policy=ResiliencePolicy(max_retries=0,
                                           backoff_base_s=0.0)
        )
        first = resilient.query_cost(a_query, None)
        second = resilient.query_cost(a_query, None)  # injected failure
        assert second == first
        assert resilient.statistics.stale_cache_hits == 1
        assert resilient.stale_cache_size == 1

    def test_fallback_source_prices_unknown_answers(
        self, analytical, a_query
    ):
        dead = FaultInjectingCostSource(analytical, failure_rate=1.0)
        resilient = ResilientCostSource(
            dead,
            policy=ResiliencePolicy(max_retries=1, backoff_base_s=0.0),
            fallbacks=(analytical,),
        )
        cost = resilient.query_cost(a_query, None)
        assert cost == analytical.query_cost(a_query, None)
        assert resilient.statistics.fallback_calls == 1

    def test_stale_cache_preferred_over_fallback(
        self, analytical, a_query
    ):
        counting = _CountingFallback(analytical)
        flaky = FaultInjectingCostSource(
            analytical, script=["ok", "fail"]
        )
        resilient = ResilientCostSource(
            flaky,
            policy=ResiliencePolicy(max_retries=0, backoff_base_s=0.0),
            fallbacks=(counting,),
        )
        resilient.query_cost(a_query, None)
        resilient.query_cost(a_query, None)
        assert counting.calls == 0

    def test_unavailable_when_chain_exhausted(self, a_query):
        class Dead:
            def query_cost(self, query, index):
                raise TransientCostSourceError("down")

        resilient = ResilientCostSource(
            Dead(), policy=ResiliencePolicy(max_retries=0,
                                            backoff_base_s=0.0)
        )
        with pytest.raises(CostSourceUnavailableError):
            resilient.query_cost(a_query, None)


class TestBreaker:
    def test_breaker_opens_after_threshold_exhaustions(
        self, analytical, a_query, tiny_workload
    ):
        dead = FaultInjectingCostSource(analytical, failure_rate=1.0)
        resilient = ResilientCostSource(
            dead,
            policy=ResiliencePolicy(
                max_retries=0, backoff_base_s=0.0, breaker_threshold=2
            ),
            fallbacks=(analytical,),
        )
        queries = tiny_workload.queries
        resilient.query_cost(queries[0], None)
        resilient.query_cost(queries[1], None)
        assert resilient.breaker.state is BreakerState.OPEN
        # Subsequent calls skip the dead backend entirely.
        calls_before = dead.statistics.calls
        resilient.query_cost(queries[2], None)
        assert dead.statistics.calls == calls_before
        assert resilient.statistics.breaker_short_circuits == 1

    def test_half_open_trial_recovers(self, analytical, a_query):
        clock = ManualClock()
        flaky = FaultInjectingCostSource(
            analytical, script=fail_n_then_succeed(1)
        )
        resilient = ResilientCostSource(
            flaky,
            policy=ResiliencePolicy(
                max_retries=0,
                backoff_base_s=0.0,
                breaker_threshold=1,
                breaker_reset_s=5.0,
            ),
            fallbacks=(analytical,),
            clock=clock,
        )
        resilient.query_cost(a_query, None)  # trips the breaker
        assert resilient.breaker.state is BreakerState.OPEN
        clock.advance(5.0)
        cost = resilient.query_cost(a_query, None)  # half-open trial
        assert cost == analytical.query_cost(a_query, None)
        assert resilient.breaker.state is BreakerState.CLOSED

    def test_forced_open_short_circuits(self, analytical, a_query):
        resilient = ResilientCostSource(
            analytical, policy=NO_SLEEP, fallbacks=(analytical,)
        )
        resilient.breaker.force_open()
        resilient.query_cost(a_query, None)
        assert resilient.statistics.breaker_short_circuits == 1
        assert resilient.statistics.attempts == 0

    def test_policy_swap_keeps_breaker_state(self, analytical):
        resilient = ResilientCostSource(analytical, policy=NO_SLEEP)
        resilient.breaker.force_open()
        resilient.policy = ResiliencePolicy(max_retries=9)
        assert resilient.policy.max_retries == 9
        assert not resilient.breaker.allows_call()


class TestUnderTheFacade:
    def test_whatif_results_identical_under_20pct_faults(
        self, analytical, tiny_workload
    ):
        """The optimizer's view of costs is unchanged by injected
        faults — retries and fallbacks are fully transparent."""
        clean = WhatIfOptimizer(analytical)
        flaky = FaultInjectingCostSource(
            analytical, failure_rate=0.2, seed=202
        )
        resilient = WhatIfOptimizer(
            ResilientCostSource(
                flaky,
                policy=ResiliencePolicy(max_retries=10,
                                        backoff_base_s=0.0),
                fallbacks=(analytical,),
            )
        )
        for query in tiny_workload:
            assert resilient.sequential_cost(query) == (
                clean.sequential_cost(query)
            )


# ----------------------------------------------------------------------
# One retry loop, two call shapes: a per-pair query_cost and a pair batch
# ----------------------------------------------------------------------


@pytest.fixture
def kernel(tiny_workload):
    return VectorizedCostSource(tiny_workload.schema)


@pytest.fixture(params=["query_cost", "pair_costs"])
def price(request, tiny_workload):
    """One resilient call and the pairs it prices: ``query_cost`` of
    one pair, or one ``pair_costs`` batch of three."""
    queries = tiny_workload.queries
    pairs = (
        (queries[0], None),
        (queries[0], Index.of(tiny_workload.schema, (0,))),
        (queries[1], None),
    )
    if request.param == "query_cost":
        pairs = pairs[:1]

        def run(resilient):
            [(query, index)] = pairs
            return [resilient.query_cost(query, index)]

    else:

        def run(resilient):
            return resilient.pair_costs(pairs).tolist()

    run.pairs = pairs
    return run


def _healthy(pairs, schema):
    """The fault-free answers, one per pair."""
    reference = VectorizedCostSource(schema)
    return [reference.query_cost(query, index) for query, index in pairs]


class TestOneRetryLoop:
    """Retries, timeouts, the breaker and the fallback chain act alike
    on a per-pair call and on a pair batch: a batch is one unit."""

    def test_retries_through_transient_failures(
        self, kernel, price, tiny_workload
    ):
        flaky = FaultInjectingCostSource(
            kernel, script=fail_n_then_succeed(2)
        )
        resilient = ResilientCostSource(
            flaky,
            policy=ResiliencePolicy(max_retries=3, backoff_base_s=0.0),
        )
        assert price(resilient) == _healthy(
            price.pairs, tiny_workload.schema
        )
        assert resilient.statistics.retries == 2
        assert resilient.statistics.transient_failures == 2
        # One backend invocation per attempt, whatever the pair count.
        assert flaky.statistics.calls == 3

    def test_exhausted_retries_raise_without_fallback(
        self, kernel, price
    ):
        flaky = FaultInjectingCostSource(kernel, failure_rate=1.0)
        resilient = ResilientCostSource(
            flaky,
            policy=ResiliencePolicy(max_retries=2, backoff_base_s=0.0),
        )
        with pytest.raises(CostSourceUnavailableError):
            price(resilient)
        assert resilient.statistics.attempts == 3
        assert resilient.statistics.unavailable == 1

    def test_slow_call_times_out_and_retries(
        self, kernel, price, tiny_workload
    ):
        clock = ManualClock()
        flaky = FaultInjectingCostSource(
            kernel, script=["slow", "ok"], spike_latency_s=5.0, clock=clock
        )
        resilient = ResilientCostSource(
            flaky,
            policy=ResiliencePolicy(
                max_retries=1, backoff_base_s=0.0, call_timeout_s=1.0
            ),
            clock=clock,
        )
        assert price(resilient) == _healthy(
            price.pairs, tiny_workload.schema
        )
        assert resilient.statistics.timeouts == 1
        assert resilient.statistics.retries == 1

    def test_exhausted_call_is_one_breaker_failure(
        self, kernel, price, tiny_workload
    ):
        dead = FaultInjectingCostSource(kernel, failure_rate=1.0)
        resilient = ResilientCostSource(
            dead,
            policy=ResiliencePolicy(
                max_retries=1, backoff_base_s=0.0, breaker_threshold=2
            ),
            fallbacks=(VectorizedCostSource(tiny_workload.schema),),
        )
        healthy = _healthy(price.pairs, tiny_workload.schema)
        assert price(resilient) == healthy
        assert resilient.breaker.state is BreakerState.CLOSED
        assert price(resilient) == healthy
        assert resilient.breaker.state is BreakerState.OPEN
        calls = dead.statistics.calls
        assert price(resilient) == healthy
        assert dead.statistics.calls == calls
        assert resilient.statistics.breaker_short_circuits == 1

    def test_half_open_trial_recovers(self, kernel, price, tiny_workload):
        clock = ManualClock()
        flaky = FaultInjectingCostSource(
            kernel, script=fail_n_then_succeed(1)
        )
        resilient = ResilientCostSource(
            flaky,
            policy=ResiliencePolicy(
                max_retries=0,
                backoff_base_s=0.0,
                breaker_threshold=1,
                breaker_reset_s=5.0,
            ),
            fallbacks=(VectorizedCostSource(tiny_workload.schema),),
            clock=clock,
        )
        price(resilient)  # trips the breaker
        assert resilient.breaker.state is BreakerState.OPEN
        clock.advance(5.0)
        assert price(resilient) == _healthy(
            price.pairs, tiny_workload.schema
        )
        assert resilient.breaker.state is BreakerState.CLOSED

    def test_stale_cache_preferred_over_fallback(self, kernel, price):
        counting = _CountingFallback(kernel)
        flaky = FaultInjectingCostSource(kernel, script=["ok", "fail"])
        resilient = ResilientCostSource(
            flaky,
            policy=ResiliencePolicy(max_retries=0, backoff_base_s=0.0),
            fallbacks=(counting,),
        )
        first = price(resilient)
        assert price(resilient) == first  # injected failure
        assert counting.calls == 0
        assert resilient.statistics.stale_cache_hits == len(price.pairs)
        assert resilient.stale_cache_size == len(price.pairs)

    def test_fallback_prices_unknown_answers(
        self, kernel, price, tiny_workload
    ):
        dead = FaultInjectingCostSource(kernel, failure_rate=1.0)
        resilient = ResilientCostSource(
            dead,
            policy=ResiliencePolicy(max_retries=1, backoff_base_s=0.0),
            fallbacks=(VectorizedCostSource(tiny_workload.schema),),
        )
        assert price(resilient) == _healthy(
            price.pairs, tiny_workload.schema
        )
        assert resilient.statistics.fallback_calls == len(price.pairs)


class _Versioned:
    """A backend whose every answer is the number of the invocation
    that gave it, so a later answer visibly replaces an earlier one."""

    def __init__(self) -> None:
        self.invocations = 0

    def query_cost(self, query, index) -> float:
        self.invocations += 1
        return float(self.invocations)

    def pair_costs(self, pairs):
        self.invocations += 1
        return np.full(len(tuple(pairs)), float(self.invocations))


class TestPairBatchFallback:
    def test_failed_batch_falls_back_per_pair_stale_first(
        self, kernel, tiny_workload
    ):
        """A failed batch asks the stale cache pair by pair, and the
        fallback chain only for the pairs it does not know."""
        queries = tiny_workload.queries
        pairs = ((queries[0], None), (queries[1], None), (queries[2], None))
        flaky = FaultInjectingCostSource(kernel, script=["ok", "fail"])
        resilient = ResilientCostSource(
            flaky,
            policy=ResiliencePolicy(max_retries=0, backoff_base_s=0.0),
            fallbacks=(VectorizedCostSource(tiny_workload.schema),),
        )
        resilient.query_cost(*pairs[0])
        costs = resilient.pair_costs(pairs)
        assert costs.tolist() == _healthy(pairs, tiny_workload.schema)
        assert resilient.statistics.stale_cache_hits == 1
        assert resilient.statistics.fallback_calls == 2
        # Fallback answers are reproducible, so never cached as stale.
        assert resilient.stale_cache_size == 1

    def test_successful_batch_refreshes_stale_entries(self, a_query):
        flaky = FaultInjectingCostSource(
            _Versioned(), script=["ok", "ok", "fail"]
        )
        resilient = ResilientCostSource(
            flaky,
            policy=ResiliencePolicy(max_retries=0, backoff_base_s=0.0),
        )
        assert resilient.query_cost(a_query, None) == 1.0
        assert resilient.pair_costs([(a_query, None)]).tolist() == [2.0]
        # The per-pair call fails; its stale answer is the batch's.
        assert resilient.query_cost(a_query, None) == 2.0
        assert resilient.statistics.stale_cache_hits == 1
        assert resilient.stale_cache_size == 1

    def test_pair_costs_advertised_only_by_a_batch_primary(
        self, analytical, kernel
    ):
        assert ResilientCostSource(kernel).pair_costs is not None
        fallback_only = ResilientCostSource(
            analytical, fallbacks=(kernel,)
        )
        assert getattr(fallback_only, "pair_costs", None) is None
