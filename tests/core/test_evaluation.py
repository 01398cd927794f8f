"""Unit tests for the incremental candidate-evaluation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import (
    BenefitTable,
    CandidateMove,
    EvaluationStatistics,
    price_columns,
)
from repro.core.steps import StepKind
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.indexes.index import Index


def _move(
    schema,
    attributes,
    positions,
    costs,
    weights=None,
    *,
    kind=StepKind.NEW_SINGLE,
    memory_delta=100,
    lazy=False,
    pricings=None,
):
    """A hand-rolled CandidateMove over explicit cost vectors."""
    index = Index.of(schema, tuple(attributes))
    positions = np.asarray(positions, dtype=np.intp)
    costs = np.asarray(costs, dtype=np.float64)
    if weights is None:
        weights = np.ones(len(positions), dtype=np.float64)

    if lazy:

        def pricer():
            if pricings is not None:
                pricings.append(index)
            return costs

        return CandidateMove(
            kind, None, index, memory_delta, positions,
            np.asarray(weights, dtype=np.float64), 0.0,
            pricer=pricer,
        )
    return CandidateMove(
        kind, None, index, memory_delta, positions,
        np.asarray(weights, dtype=np.float64), 0.0,
        costs=costs,
    )


class TestEvaluationStatistics:
    def test_reuse_rate(self):
        statistics = EvaluationStatistics(evaluations=25, reused=75)
        assert statistics.reuse_rate == pytest.approx(0.75)
        assert EvaluationStatistics().reuse_rate == 0.0

    def test_publish_gauges(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        registry.publish(
            "evaluation",
            EvaluationStatistics(
                rounds=3,
                evaluations=10,
                reused=30,
                invalidations=7,
                priced_candidates=5,
                pruned_candidates=2,
            ),
        )
        snapshot = registry.snapshot()
        assert snapshot["evaluation.rounds"] == 3
        assert snapshot["evaluation.reuse_rate"] == pytest.approx(0.75)
        assert snapshot["evaluation.invalidations"] == 7
        assert snapshot["evaluation.priced_candidates"] == 5
        assert snapshot["evaluation.pruned_candidates"] == 2


class TestCandidateMove:
    def test_price_is_idempotent(self, tiny_schema):
        pricings = []
        move = _move(
            tiny_schema, (0,), [0], [10.0], lazy=True, pricings=pricings
        )
        assert not move.priced
        move.price()
        move.price()
        assert move.priced
        assert len(pricings) == 1

    def test_upper_bound_is_admissible(self, tiny_schema):
        current = np.array([100.0, 50.0, 25.0])
        move = _move(
            tiny_schema, (0,), [0, 2], [30.0, 5.0], weights=[2.0, 4.0]
        )
        assert move.upper_bound(current) >= move.benefit(current)
        # Bound equals the benefit of dropping affected costs to zero.
        assert move.upper_bound(current) == pytest.approx(
            2.0 * 100.0 + 4.0 * 25.0
        )

    def test_benefit_clamps_regressions_to_zero(self, tiny_schema):
        current = np.array([10.0, 10.0])
        move = _move(
            tiny_schema, (0,), [0, 1], [4.0, 25.0]
        )  # second query would regress
        assert move.benefit(current) == pytest.approx(6.0)


class TestBenefitTable:
    def test_membership_and_retire(self, tiny_schema):
        table = BenefitTable()
        move = _move(tiny_schema, (0,), [0], [1.0])
        table.register(move)
        assert move in table
        assert len(table) == 1
        table.retire(move)
        assert move not in table
        assert len(table) == 0
        table.retire(move)  # idempotent

    def test_naive_mode_prices_at_registration(self, tiny_schema):
        pricings = []
        table = BenefitTable(naive=True)
        move = _move(
            tiny_schema, (0,), [0], [1.0], lazy=True, pricings=pricings
        )
        table.register(move)
        assert move.priced
        assert len(pricings) == 1

    def test_incremental_defers_pricing_of_losers(self, tiny_schema):
        """A candidate whose bound cannot win is never priced."""
        pricings = []
        current = np.array([100.0, 1.0])
        winner = _move(
            tiny_schema, (0,), [0], [10.0], lazy=True, pricings=pricings
        )
        # Upper bound 1.0 -> ratio 0.01, hopeless against the winner.
        loser = _move(
            tiny_schema, (1,), [1], [0.5], lazy=True, pricings=pricings
        )
        table = BenefitTable()
        table.register(winner)
        table.register(loser)
        best, _ = table.best(current)
        assert best is not None
        assert best[0] is winner
        assert best[1] == pytest.approx(90.0)
        assert not loser.priced
        assert table.pending_candidates() == 1
        table.close()
        assert table.statistics.pruned_candidates == 1

    def test_prices_potential_ties_exactly(self, tiny_schema):
        """Bound ties with the best priced ratio must be resolved by
        pricing, or tie-breaking could diverge from the naive scan."""
        current = np.array([100.0, 100.0])
        priced = _move(tiny_schema, (0,), [0], [0.0])  # benefit 100
        contender = _move(tiny_schema, (1,), [1], [0.0], lazy=True)
        table = BenefitTable()
        table.register(priced)
        table.register(contender)
        best, _ = table.best(current)
        assert contender.priced
        # Equal ratio and benefit: deterministic key picks attribute 0.
        assert best[0] is priced

    def test_oversized_moves_return_when_room_grows(self, tiny_schema):
        """A move that does not fit one round is not dropped: a later
        round with more room (``prune_unused`` frees memory) still
        considers it."""
        current = np.array([100.0, 100.0])
        # Bound ratio 10, but 100 bytes.
        big = _move(
            tiny_schema, (0,), [0], [0.0], weights=[10.0],
            memory_delta=100, lazy=True,
        )
        # Bound ratio 5, exact ratio 2.5.
        small = _move(
            tiny_schema, (1,), [1], [50.0], memory_delta=20, lazy=True
        )
        table = BenefitTable()
        table.register(big)
        table.register(small)
        best, _ = table.best(current, max_memory_delta=50)
        assert best[0] is small
        assert not big.priced
        table.retire(small)
        best, _ = table.best(current, max_memory_delta=200)
        assert best[0] is big
        assert best[1] == pytest.approx(1000.0)

    def test_extend_run_leaves_no_reference_cycles(self, small_workload):
        """Moves (and their cost arrays) are freed by reference counting
        as soon as a run ends, not at the next cyclic collection."""
        import gc

        from repro.core.extend import ExtendAlgorithm
        from repro.indexes.memory import relative_budget

        optimizer = WhatIfOptimizer(
            AnalyticalCostSource(CostModel(small_workload.schema))
        )
        budget = relative_budget(small_workload.schema, 0.3)
        gc.collect()
        gc.disable()
        try:
            ExtendAlgorithm(
                optimizer, prune_unused=True, missed_opportunities=2
            ).select(small_workload, budget)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_invalidate_marks_only_overlapping_entries(self, tiny_schema):
        current = np.array([10.0, 20.0, 30.0])
        touched = _move(tiny_schema, (0,), [0, 1], [1.0, 2.0])
        untouched = _move(tiny_schema, (1,), [2], [3.0])
        table = BenefitTable()
        table.register(touched)
        table.register(untouched)
        table.best(current)

        table.invalidate([1])
        assert table.statistics.invalidations == 1
        table.best(current)
        # Only the touched entry re-evaluated; the other was reused.
        assert table.statistics.reused >= 1

    def test_naive_and_incremental_agree(self, tiny_schema):
        current = np.array([50.0, 40.0, 30.0, 20.0])
        spec = [
            ((0,), [0, 1], [10.0, 39.0], 64),
            ((1,), [1, 2], [5.0, 5.0], 128),
            ((2,), [2, 3], [29.0, 19.0], 32),
            ((3,), [3], [1.0], 96),
        ]
        naive = BenefitTable(naive=True)
        incremental = BenefitTable()
        for attributes, positions, costs, memory in spec:
            naive.register(
                _move(
                    tiny_schema, attributes, positions, costs,
                    memory_delta=memory, lazy=True,
                )
            )
            incremental.register(
                _move(
                    tiny_schema, attributes, positions, costs,
                    memory_delta=memory, lazy=True,
                )
            )
        for max_memory in (None, 100, 48, 10):
            best_naive, runners_naive = naive.best(
                current, 2, max_memory_delta=max_memory
            )
            best_incr, runners_incr = incremental.best(
                current, 2, max_memory_delta=max_memory
            )
            if best_naive is None:
                assert best_incr is None
                continue
            assert (
                best_naive[0].new_index.attributes
                == best_incr[0].new_index.attributes
            )
            assert best_naive[1] == pytest.approx(best_incr[1])
            assert [
                (move.new_index.attributes, pytest.approx(benefit))
                for move, benefit, _ in runners_naive
            ] == [
                (move.new_index.attributes, benefit)
                for move, benefit, _ in runners_incr
            ]


class TestPriceColumns:
    def test_warms_facade_cache(self, tiny_workload, tiny_schema):
        class Counting:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def query_cost(self, query, index):
                self.calls += 1
                return self.inner.query_cost(query, index)

        source = Counting(
            AnalyticalCostSource(CostModel(tiny_schema))
        )
        optimizer = WhatIfOptimizer(source)
        indexes = [
            Index.of(tiny_schema, (attribute,)) for attribute in range(5)
        ]
        price_columns(optimizer, tiny_workload.queries, indexes)
        warmed = source.calls
        assert warmed > 0
        # Re-pricing afterwards is pure cache hits.
        for index in indexes:
            for query in tiny_workload.queries:
                if index.is_applicable_to(query):
                    optimizer.index_cost(query, index)
        assert source.calls == warmed
