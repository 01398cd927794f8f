"""End-to-end resilience acceptance tests.

Exercises the full advisor stack under injected faults, a forced-open
circuit breaker, and wall-clock deadlines — the robustness claims the
resilience layer has to back up:

* a seeded 20% transient-failure rate must be fully transparent (same
  configuration, same cost as the fault-free run);
* with the breaker forced open the advisor must still produce a valid
  fallback-priced recommendation;
* a deadline-bounded run must return a feasible best-so-far
  configuration tagged ``degraded`` that survives persistence, with its
  retry/fault counters visible in the telemetry snapshot.

The CI stress job raises the injected fault rate via ``REPRO_FAULT_RATE``.
"""

from __future__ import annotations

import os

import pytest

from repro.advisor import IndexAdvisor
from repro.core.extend import ExtendAlgorithm
from repro.core.steps import STATUS_COMPLETED, STATUS_DEGRADED
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.persistence import result_from_dict, result_to_dict
from repro.resilience import (
    Deadline,
    FaultInjectingCostSource,
    ResiliencePolicy,
    ResilientCostSource,
)
from repro.telemetry import Telemetry

FAULT_RATE = float(os.environ.get("REPRO_FAULT_RATE", "0.2"))

RETRY_HARD = ResiliencePolicy(max_retries=10, backoff_base_s=0.0)


class _TickingClock:
    """A clock that advances by a fixed tick every time it is read.

    Lets a deadline expire after a known number of polls, so algorithm
    loops run a few productive rounds before degrading — unlike a zero
    deadline, which would expire before the first step.
    """

    def __init__(self, tick: float) -> None:
        self._tick = tick
        self._now = 0.0

    def __call__(self) -> float:
        self._now += self._tick
        return self._now


class TestFaultTransparency:
    def test_recommendation_identical_under_injected_faults(
        self, small_workload
    ):
        """A seeded 20% transient-failure rate changes nothing: the
        retry layer absorbs every fault and the recommendation matches
        the fault-free run in both configuration and cost."""
        baseline = IndexAdvisor(small_workload.schema).recommend(
            small_workload, budget_share=0.4
        )

        flaky = FaultInjectingCostSource(
            AnalyticalCostSource(CostModel(small_workload.schema)),
            failure_rate=FAULT_RATE,
            seed=42,
        )
        resilient = IndexAdvisor(
            small_workload.schema,
            cost_source=flaky,
            resilience=RETRY_HARD,
        ).recommend(small_workload, budget_share=0.4)

        assert flaky.statistics.injected_failures > 0
        assert (
            resilient.result.configuration
            == baseline.result.configuration
        )
        assert resilient.result.total_cost == baseline.result.total_cost
        assert resilient.result.status == STATUS_COMPLETED

    def test_faults_transparent_across_algorithms(self, small_workload):
        for algorithm in ("extend", "h1", "h5"):
            baseline = IndexAdvisor(small_workload.schema).recommend(
                small_workload, budget_share=0.3, algorithm=algorithm
            )
            flaky = FaultInjectingCostSource(
                AnalyticalCostSource(CostModel(small_workload.schema)),
                failure_rate=FAULT_RATE,
                seed=7,
            )
            resilient = IndexAdvisor(
                small_workload.schema,
                cost_source=flaky,
                resilience=RETRY_HARD,
            ).recommend(
                small_workload, budget_share=0.3, algorithm=algorithm
            )
            assert (
                resilient.result.configuration
                == baseline.result.configuration
            ), algorithm
            assert (
                resilient.result.total_cost == baseline.result.total_cost
            ), algorithm


class TestFaultInjectionAcrossKernels:
    def test_faults_fire_identically_under_both_kernels(
        self, small_workload
    ):
        """The injector sits in front of either backend flavour: a
        scripted fail-3-then-succeed plan injects exactly three faults
        whether the backend prices per pair (scalar) or per batch
        (vectorized ``pair_costs``), and the retry layer absorbs them
        into identical recommendations."""
        from repro.cost.kernel import VectorizedCostSource
        from repro.resilience import fail_n_then_succeed

        recommendations = {}
        injectors = {}
        for kernel, backend in (
            (
                "scalar",
                AnalyticalCostSource(CostModel(small_workload.schema)),
            ),
            ("vectorized", VectorizedCostSource(small_workload.schema)),
        ):
            flaky = FaultInjectingCostSource(
                backend, script=fail_n_then_succeed(3)
            )
            injectors[kernel] = flaky
            recommendations[kernel] = IndexAdvisor(
                small_workload.schema,
                cost_source=flaky,
                resilience=RETRY_HARD,
            ).recommend(small_workload, budget_share=0.4)

        for kernel, flaky in injectors.items():
            assert flaky.statistics.injected_failures == 3, kernel
            assert (
                recommendations[kernel].result.status == STATUS_COMPLETED
            ), kernel
        # The injector mirrors the backend's batch capability, so the
        # vectorized run actually flowed through pair batches rather
        # than silently degrading to per-pair calls.
        assert getattr(injectors["scalar"], "pair_costs", None) is None
        assert (
            getattr(injectors["vectorized"], "pair_costs", None)
            is not None
        )
        assert (
            injectors["vectorized"].statistics.calls
            < injectors["scalar"].statistics.calls
        )
        scalar = recommendations["scalar"].result
        vectorized = recommendations["vectorized"].result
        assert scalar.configuration == vectorized.configuration
        assert vectorized.total_cost == pytest.approx(
            scalar.total_cost, rel=1e-9
        )


class TestBreakerOpenFallback:
    def test_open_breaker_still_recommends(self, small_workload):
        """With the breaker forced open, every cost call short-circuits
        to the analytic fallback — and the recommendation is still a
        valid, feasible configuration."""
        flaky = FaultInjectingCostSource(
            AnalyticalCostSource(CostModel(small_workload.schema)),
            failure_rate=1.0,
        )
        advisor = IndexAdvisor(
            small_workload.schema,
            cost_source=flaky,
            resilience=ResiliencePolicy(
                max_retries=0, backoff_base_s=0.0
            ),
        )
        advisor.resilience.breaker.force_open()

        recommendation = advisor.recommend(
            small_workload, budget_share=0.4
        )
        statistics = advisor.resilience.statistics
        assert statistics.breaker_short_circuits > 0
        assert statistics.fallback_calls > 0
        # The dead backend was never consulted.
        assert flaky.statistics.calls == 0
        result = recommendation.result
        assert len(result.configuration) > 0
        assert result.memory <= result.budget
        assert result.total_cost > 0

    def test_open_breaker_matches_analytic_pricing(self, small_workload):
        """Fallback-priced answers come from the analytic model, so the
        recommendation equals a plain analytic run."""
        baseline = IndexAdvisor(small_workload.schema).recommend(
            small_workload, budget_share=0.4
        )
        flaky = FaultInjectingCostSource(
            AnalyticalCostSource(CostModel(small_workload.schema)),
            failure_rate=1.0,
        )
        advisor = IndexAdvisor(
            small_workload.schema,
            cost_source=flaky,
            resilience=ResiliencePolicy(
                max_retries=0, backoff_base_s=0.0
            ),
        )
        advisor.resilience.breaker.force_open()
        degraded = advisor.recommend(small_workload, budget_share=0.4)
        assert (
            degraded.result.configuration
            == baseline.result.configuration
        )
        assert degraded.result.total_cost == baseline.result.total_cost


class TestDeadlineDegradation:
    def test_deadline_bounded_extend_returns_best_so_far(
        self, small_workload
    ):
        """An expiring deadline stops Extend mid-run: the result is a
        non-empty, budget-feasible prefix of the full run, tagged
        degraded, and survives a persistence round-trip."""
        optimizer = WhatIfOptimizer(
            AnalyticalCostSource(CostModel(small_workload.schema))
        )
        from repro.indexes.memory import relative_budget

        budget = relative_budget(small_workload.schema, 0.5)
        full = ExtendAlgorithm(optimizer).select(small_workload, budget)
        assert full.status == STATUS_COMPLETED
        assert len(full.steps) > 3  # enough rounds to interrupt

        # One poll per round; expire after ~3 rounds.
        deadline = Deadline(3.0, clock=_TickingClock(1.0))
        bounded = ExtendAlgorithm(optimizer).select(
            small_workload, budget, deadline=deadline
        )
        assert bounded.status == STATUS_DEGRADED
        assert bounded.degraded
        assert 0 < len(bounded.configuration) < len(full.configuration)
        assert bounded.memory <= budget
        # Best-so-far: no better than the run that was allowed to
        # finish, but still an improvement over doing nothing.
        assert bounded.total_cost >= full.total_cost
        assert len(bounded.steps) < len(full.steps)

        # Degraded results round-trip persistence with their status.
        restored = result_from_dict(result_to_dict(bounded))
        assert restored.status == STATUS_DEGRADED
        assert restored.configuration == bounded.configuration
        assert restored.total_cost == bounded.total_cost

    def test_deadline_with_warm_benefit_table_yields_trace_prefix(
        self, small_workload
    ):
        """Deadline expiry mid-round must not let the incremental
        engine's warm benefit table leak into the result: the degraded
        run's steps are an exact prefix of the uninterrupted serial
        run's step trace, and identical to a deadline-bounded naive run
        under the same clock."""
        from repro.core.evaluation import EvaluationConfig
        from repro.indexes.memory import relative_budget

        budget = relative_budget(small_workload.schema, 0.5)

        def run(evaluation, deadline=None):
            optimizer = WhatIfOptimizer(
                AnalyticalCostSource(CostModel(small_workload.schema))
            )
            return ExtendAlgorithm(
                optimizer, evaluation=evaluation
            ).select(small_workload, budget, deadline=deadline)

        full = run(EvaluationConfig())
        assert len(full.steps) > 3  # enough rounds to interrupt

        # One poll per round; the table is warm (caches from rounds
        # 1-3) when the deadline fires.
        bounded = run(
            EvaluationConfig(),
            deadline=Deadline(3.0, clock=_TickingClock(1.0)),
        )
        assert bounded.status == STATUS_DEGRADED
        trace = bounded.step_trace()
        assert 0 < len(trace) < len(full.steps)
        assert trace == full.step_trace()[: len(trace)]

        naive_bounded = run(
            EvaluationConfig(naive=True),
            deadline=Deadline(3.0, clock=_TickingClock(1.0)),
        )
        assert naive_bounded.step_trace() == trace
        assert naive_bounded.memory == bounded.memory
        assert naive_bounded.total_cost == bounded.total_cost

    def test_zero_deadline_through_the_advisor(self, small_workload):
        """``deadline_s=0`` degrades immediately but still returns a
        well-formed (empty) recommendation instead of raising."""
        recommendation = IndexAdvisor(small_workload.schema).recommend(
            small_workload,
            budget_share=0.4,
            algorithm="extend",
            deadline_s=0.0,
        )
        assert recommendation.result.status == STATUS_DEGRADED
        assert recommendation.result.memory == 0.0


class TestTelemetryIntegration:
    def test_resilience_counters_in_the_snapshot(self, small_workload):
        """Retry and fault counters surface in the recommendation's
        telemetry snapshot under the ``resilience.*`` prefix."""
        flaky = FaultInjectingCostSource(
            AnalyticalCostSource(CostModel(small_workload.schema)),
            failure_rate=FAULT_RATE,
            seed=11,
        )
        telemetry = Telemetry()
        advisor = IndexAdvisor(
            small_workload.schema,
            telemetry=telemetry,
            cost_source=flaky,
            resilience=RETRY_HARD,
        )
        recommendation = advisor.recommend(
            small_workload, budget_share=0.4
        )
        telemetry.metrics.publish("faults", flaky.statistics)

        metrics = telemetry.snapshot().metrics
        assert metrics["resilience.retries"] > 0
        assert metrics["resilience.transient_failures"] > 0
        assert metrics["resilience.attempts"] > 0
        assert metrics["resilience.breaker_state"] == 0.0
        assert metrics["faults.injected_failures"] > 0
        # The recommendation's bundled snapshot carries the same view.
        assert (
            recommendation.telemetry.metrics["resilience.retries"]
            == metrics["resilience.retries"]
        )

    def test_stale_cache_and_fallback_statistics(self, tiny_workload):
        """ResilientCostSource statistics accumulate across advisor
        calls and remain queryable via ``advisor.resilience``."""
        flaky = FaultInjectingCostSource(
            AnalyticalCostSource(CostModel(tiny_workload.schema)),
            failure_rate=FAULT_RATE,
            seed=3,
        )
        advisor = IndexAdvisor(
            tiny_workload.schema,
            cost_source=flaky,
            resilience=RETRY_HARD,
        )
        advisor.recommend(tiny_workload, budget_share=0.3)
        statistics = advisor.resilience.statistics
        assert statistics.attempts >= flaky.statistics.calls > 0
        assert advisor.resilience.stale_cache_size > 0
