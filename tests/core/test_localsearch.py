"""Tests for the swap local search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import price_columns
from repro.core.extend import ExtendAlgorithm
from repro.core.localsearch import _CostCache, _prune_pool, swap_local_search
from repro.core.steps import STATUS_DEGRADED
from repro.cost import whatif
from repro.cost.kernel import VectorizedCostSource
from repro.cost.whatif import WhatIfOptimizer
from repro.exceptions import BudgetError
from repro.indexes.candidates import syntactically_relevant_candidates
from repro.indexes.memory import relative_budget
from repro.resilience import Deadline, ManualClock
from tests.cost.test_whatif import RecordingKernel


class TestSwapLocalSearch:
    def test_never_worse_than_input(self, small_workload, small_optimizer):
        candidates = syntactically_relevant_candidates(small_workload)
        for share in (0.1, 0.2, 0.4):
            budget = relative_budget(small_workload.schema, share)
            start = ExtendAlgorithm(small_optimizer).select(
                small_workload, budget
            )
            improved = swap_local_search(
                small_workload,
                small_optimizer,
                start,
                budget,
                candidates,
            )
            assert improved.total_cost <= start.total_cost + 1e-9

    def test_respects_budget(self, small_workload, small_optimizer):
        candidates = syntactically_relevant_candidates(small_workload)
        budget = relative_budget(small_workload.schema, 0.2)
        start = ExtendAlgorithm(small_optimizer).select(
            small_workload, budget
        )
        improved = swap_local_search(
            small_workload, small_optimizer, start, budget, candidates
        )
        assert improved.memory <= budget

    def test_result_cost_matches_fresh_evaluation(
        self, small_workload, small_optimizer
    ):
        candidates = syntactically_relevant_candidates(small_workload)
        budget = relative_budget(small_workload.schema, 0.3)
        start = ExtendAlgorithm(small_optimizer).select(
            small_workload, budget
        )
        improved = swap_local_search(
            small_workload, small_optimizer, start, budget, candidates
        )
        fresh = small_optimizer.workload_cost(
            small_workload, improved.configuration
        )
        assert improved.total_cost == pytest.approx(fresh, rel=1e-9)

    def test_algorithm_name_suffixed(self, small_workload, small_optimizer):
        candidates = syntactically_relevant_candidates(small_workload)
        budget = relative_budget(small_workload.schema, 0.2)
        start = ExtendAlgorithm(small_optimizer).select(
            small_workload, budget
        )
        improved = swap_local_search(
            small_workload, small_optimizer, start, budget, candidates
        )
        assert improved.algorithm == "H6+swap"

    def test_empty_pool_is_noop(self, small_workload, small_optimizer):
        budget = relative_budget(small_workload.schema, 0.2)
        start = ExtendAlgorithm(small_optimizer).select(
            small_workload, budget
        )
        unchanged = swap_local_search(
            small_workload, small_optimizer, start, budget, []
        )
        assert unchanged.configuration == start.configuration
        assert unchanged.total_cost == pytest.approx(start.total_cost)

    def test_rejects_negative_budget(self, small_workload, small_optimizer):
        start = ExtendAlgorithm(small_optimizer).select(
            small_workload, 0
        )
        with pytest.raises(BudgetError, match="budget"):
            swap_local_search(
                small_workload, small_optimizer, start, -1, []
            )

    def test_can_recover_greedy_mistakes(self, tiny_workload, tiny_optimizer):
        """Starting from a deliberately bad selection, the swap pass must
        find strictly better configurations when the budget allows."""
        from repro.core.steps import SelectionResult
        from repro.indexes.configuration import IndexConfiguration
        from repro.indexes.index import Index
        from repro.indexes.memory import configuration_memory

        schema = tiny_workload.schema
        bad = IndexConfiguration([Index.of(schema, (2,))])  # STATUS only
        budget = relative_budget(schema, 1.0)
        start = SelectionResult(
            algorithm="bad",
            configuration=bad,
            total_cost=tiny_optimizer.workload_cost(tiny_workload, bad),
            memory=configuration_memory(schema, bad),
            budget=budget,
            runtime_seconds=0.0,
            whatif_calls=0,
        )
        candidates = syntactically_relevant_candidates(tiny_workload)
        improved = swap_local_search(
            tiny_workload, tiny_optimizer, start, budget, candidates
        )
        assert improved.total_cost < start.total_cost


def _extend(workload, budget, source=None):
    """A fresh kernel facade that has run Extend, and Extend's result."""
    facade = WhatIfOptimizer(source or VectorizedCostSource(workload.schema))
    return facade, ExtendAlgorithm(facade).select(workload, budget)


def _by_name(index):
    return (index.table_name, index.attributes)


def _dense_ranking(workload, optimizer, selected, pool):
    """Scores of what each pool candidate adds to ``selected``, from
    dense per-pair columns, and the pool sorted by them (stable)."""
    queries = workload.queries
    weights = np.array([query.frequency for query in queries])

    def column(index):
        return np.array(
            [optimizer.index_cost(query, index) for query in queries]
        )

    base = np.array([optimizer.sequential_cost(query) for query in queries])
    for index in sorted(selected, key=_by_name):
        base = np.minimum(base, column(index))
    scores = {
        index: float(np.dot(weights, np.maximum(base - column(index), 0.0)))
        for index in pool
    }
    return sorted(pool, key=lambda index: -scores[index]), scores


class TestPoolPruning:
    """``max_pool`` below the pool size: the sparse ranking branch."""

    SHARE = 0.1

    @pytest.fixture
    def case(self, small_workload):
        """Budget, candidates, the pool swap ranks, its dense reference
        ranking, and a cutoff that splits a tie of positive scores."""
        budget = relative_budget(small_workload.schema, self.SHARE)
        reference, start = _extend(small_workload, budget)
        selected = set(start.configuration)
        candidates = syntactically_relevant_candidates(small_workload)
        pool = [index for index in candidates if index not in selected]
        ranking, scores = _dense_ranking(
            small_workload, reference, selected, pool
        )
        cut = next(
            rank + 1
            for rank in range(len(ranking) - 1)
            if scores[ranking[rank]] > 0
            and scores[ranking[rank]] == scores[ranking[rank + 1]]
        )
        return budget, candidates, pool, ranking, cut

    @pytest.mark.parametrize("reverse", [False, True])
    def test_kept_pool_matches_dense_reference(
        self, small_workload, case, reverse
    ):
        budget, _, pool, _, cut = case
        if reverse:
            pool = pool[::-1]
        reference, start = _extend(small_workload, budget)
        ranking, scores = _dense_ranking(
            small_workload, reference, set(start.configuration), pool
        )
        assert scores[ranking[cut - 1]] == scores[ranking[cut]]
        facade, _ = _extend(small_workload, budget)
        kept = _prune_pool(
            _CostCache(small_workload, facade),
            set(start.configuration),
            pool,
            cut,
            Deadline.none(),
        )
        assert kept == ranking[:cut]

    def test_result_matches_run_on_reference_pruned_pool(
        self, small_workload, case
    ):
        budget, candidates, _, ranking, cut = case
        facade, start = _extend(small_workload, budget)
        pruned = swap_local_search(
            small_workload, facade, start, budget, candidates, max_pool=cut
        )
        facade, start = _extend(small_workload, budget)
        expected = swap_local_search(
            small_workload, facade, start, budget, ranking[:cut],
            max_pool=cut,
        )
        assert pruned.configuration != start.configuration
        assert pruned.configuration == expected.configuration
        assert pruned.total_cost == expected.total_cost
        assert pruned.memory == expected.memory

    def test_prices_each_pool_column_once(self, small_workload, case):
        budget, candidates, pool, _, cut = case
        facade, start = _extend(small_workload, budget)
        swap_local_search(
            small_workload, facade, start, budget, candidates, max_pool=cut
        )
        reference, _ = _extend(small_workload, budget)
        queries = small_workload.queries
        reference.sequential_costs(queries)
        for index in [*sorted(start.configuration, key=_by_name), *pool]:
            reference.index_costs(
                [query for query in queries if index.is_applicable_to(query)],
                index,
            )
        assert facade.statistics.calls == reference.statistics.calls
        assert (
            facade.statistics.cache_hits == reference.statistics.cache_hits
        )

    def test_deadline_expiring_during_pool_pricing(
        self, small_workload, case, monkeypatch
    ):
        """Ranking stops after the first priced batch and the input
        comes back tagged degraded, as at a round boundary."""
        budget, candidates, _, _, cut = case
        monkeypatch.setattr(whatif, "PAIR_CHUNK", 8)

        def run(deadline):
            source = RecordingKernel(small_workload.schema)
            facade, start = _extend(small_workload, budget, source)
            # The selected columns are then cache hits: the first pair
            # batch the backend sees during swap is a pool chunk.
            price_columns(
                facade, small_workload.queries, start.configuration
            )
            source.pair_batches.clear()
            source.on_pair_batch = lambda: clock.advance(10.0)
            result = swap_local_search(
                small_workload, facade, start, budget, candidates,
                max_pool=cut, deadline=deadline,
            )
            return start, result, len(source.pair_batches)

        clock = ManualClock()
        start, result, batches = run(Deadline(5.0, clock=clock))
        assert batches == 1
        assert result.status == STATUS_DEGRADED
        assert result.configuration == start.configuration
        assert result.total_cost == pytest.approx(start.total_cost)
        _, unbounded, batches = run(None)
        assert batches > 1
        assert unbounded.status != STATUS_DEGRADED
