"""Tests for the swap local search."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.core.evaluation import price_columns
from repro.core.extend import ExtendAlgorithm
from repro.core.localsearch import _CostCache, _prune_pool, swap_local_search
from repro.core.steps import STATUS_DEGRADED, SelectionResult
from repro.cost import whatif
from repro.cost.kernel import VectorizedCostSource
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.exceptions import BudgetError
from repro.indexes.candidates import syntactically_relevant_candidates
from repro.indexes.configuration import IndexConfiguration
from repro.indexes.memory import (
    configuration_memory,
    index_memory,
    relative_budget,
)
from repro.resilience import Deadline, ManualClock
from repro.telemetry import StepEvent, Telemetry
from repro.workload.query import Query, QueryKind, Workload
from repro.workload.schema import Schema
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


# ----------------------------------------------------------------------
# Oracle: the round loop that restacks the selection for every candidate
# ----------------------------------------------------------------------


def _reference_cost(cache, indexes):
    """``F`` of a selection, minimum by minimum, as the rounds priced
    every trial before per-query best and second-best costs."""
    best = cache.sequential.copy()
    maintenance = 0.0
    for index in indexes:
        np.minimum(best, cache.column(index), out=best)
        maintenance += cache.maintenance_of(index)
    return float(np.dot(cache.weights, best)) + maintenance


def _reference_swap(
    workload, optimizer, result, budget, candidate_pool, *, max_pool,
    telemetry, evictions=None,
):
    """Swap local search as it was before per-query best and
    second-best costs: every candidate restacks the whole selection to
    find each index's marginal, and every trial is priced anew.
    Counts into ``evictions`` how many indexes each feasible trial
    evicts."""
    evictions = Counter() if evictions is None else evictions
    schema = workload.schema
    cache = _CostCache(workload, optimizer)
    selected = set(result.configuration)
    memory = {index: index_memory(schema, index) for index in selected}
    current_memory = sum(memory.values())
    pool = [index for index in dict.fromkeys(candidate_pool)]
    pool = [index for index in pool if index not in selected]
    if len(pool) > max_pool:
        pool = _prune_pool(cache, selected, pool, max_pool, Deadline.none())
    for index in pool:
        memory[index] = index_memory(schema, index)
    current_cost = _reference_cost(cache, selected)
    swaps = 0
    for _ in range(20):
        ordered_selected = sorted(selected, key=_by_name)
        selected_matrix = (
            np.vstack([cache.column(index) for index in ordered_selected])
            if ordered_selected
            else np.empty((0, len(cache.sequential)))
        )
        improvement = None
        for candidate in pool:
            if candidate in selected:
                continue
            stacked = np.vstack(
                [
                    selected_matrix,
                    cache.column(candidate)[None, :],
                    cache.sequential[None, :],
                ]
            )
            owners = np.argmin(stacked, axis=0)
            two_smallest = np.partition(stacked, 1, axis=0)
            regret = (two_smallest[1] - two_smallest[0]) * cache.weights
            marginal = {
                index: float(regret[owners == row].sum())
                for row, index in enumerate(ordered_selected)
            }
            needed = current_memory + memory[candidate] - budget
            evicted = []
            if needed > 0:
                for victim in sorted(
                    ordered_selected, key=lambda index: marginal[index]
                ):
                    evicted.append(victim)
                    needed -= memory[victim]
                    if needed <= 0:
                        break
                if needed > 0:
                    continue
            evictions[len(evicted)] += 1
            trial = (selected - set(evicted)) | {candidate}
            gain = current_cost - _reference_cost(cache, trial)
            if gain > 0 and (improvement is None or gain > improvement[0]):
                improvement = (gain, candidate, tuple(evicted))
        if improvement is None:
            break
        gain, candidate, evicted = improvement
        cost_before, memory_before = current_cost, current_memory
        selected = (selected - set(evicted)) | {candidate}
        current_memory = sum(memory[index] for index in selected)
        current_cost = _reference_cost(cache, selected)
        pool = [index for index in pool if index != candidate]
        pool.extend(evicted)
        swaps += 1
        memory_delta = current_memory - memory_before
        telemetry.emit_step(
            StepEvent(
                algorithm=f"{result.algorithm}+swap",
                step_number=swaps,
                action="swap",
                table=candidate.table_name,
                index_before=evicted[0].attributes if evicted else None,
                index_after=candidate.attributes,
                chosen=True,
                benefit=cost_before - current_cost,
                memory_delta=memory_delta,
                ratio=(
                    (cost_before - current_cost) / memory_delta
                    if memory_delta > 0
                    else float("inf")
                ),
                cost_before=cost_before,
                cost_after=current_cost,
                memory_before=memory_before,
                memory_after=current_memory,
            )
        )
    return SelectionResult(
        algorithm=f"{result.algorithm}+swap",
        configuration=IndexConfiguration(selected),
        total_cost=current_cost,
        memory=current_memory,
        budget=budget,
        runtime_seconds=0.0,
        whatif_calls=0,
        status=result.status,
    )


ROWS = 10_000


@st.composite
def swap_cases(draw):
    """A workload of two tables with write templates, a starting
    selection (possibly empty), a budget near its memory, and a pool
    cap.  ``A1`` is ``A0``'s twin — the same statistics, and queried
    only together with it — so every index on one has a duplicate cost
    column on the other, and ties between selected and candidate
    columns are common."""
    statistics = st.tuples(
        st.sampled_from([2, 40, 1_000, ROWS]), st.sampled_from([4, 8, 16])
    )
    main = [draw(statistics) for _ in range(draw(st.integers(3, 6)))]
    main[1] = main[0]
    side = [draw(statistics) for _ in range(draw(st.integers(1, 3)))]
    schema = Schema.build(
        {
            "T": (ROWS, [(f"A{i}", *spec) for i, spec in enumerate(main)]),
            "U": (ROWS, [(f"B{i}", *spec) for i, spec in enumerate(side)]),
        }
    )
    queries = []
    for query_id in range(draw(st.integers(2, 10))):
        table = draw(st.sampled_from(schema.tables))
        ids = [attribute.id for attribute in table.attributes]
        subset = set(draw(st.sets(st.sampled_from(ids), min_size=1)))
        if subset & {0, 1}:
            subset |= {0, 1}
        kind = draw(
            st.sampled_from(
                [QueryKind.SELECT] * 2 + [QueryKind.UPDATE, QueryKind.INSERT]
            )
        )
        frequency = float(draw(st.integers(1, 1_000)))
        queries.append(
            Query(query_id, table.name, frozenset(subset), frequency, kind)
        )
    workload = Workload(schema, queries)
    candidates = syntactically_relevant_candidates(workload, 3)
    start = draw(
        st.lists(st.sampled_from(candidates), unique=True, max_size=6)
    )
    largest = max(index_memory(schema, index) for index in candidates)
    slack = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]))
    budget = configuration_memory(schema, start) + slack * largest
    max_pool = draw(st.sampled_from([3, 500]))
    return workload, candidates, start, budget, max_pool


def _swap_run(swap, case, **kwargs):
    """One swap pass from the case's start on a fresh facade: what it
    chose, its step events, and its what-if statistics."""
    workload, candidates, start, budget, max_pool = case
    optimizer = WhatIfOptimizer(
        AnalyticalCostSource(CostModel(workload.schema))
    )
    configuration = IndexConfiguration(start)
    result = SelectionResult(
        algorithm="start",
        configuration=configuration,
        total_cost=optimizer.workload_cost(workload, configuration),
        memory=configuration_memory(workload.schema, configuration),
        budget=budget,
        runtime_seconds=0.0,
        whatif_calls=0,
    )
    telemetry = Telemetry()
    swapped = swap(
        workload, optimizer, result, budget, candidates,
        max_pool=max_pool, telemetry=telemetry, **kwargs,
    )
    statistics = optimizer.statistics
    return (
        (
            swapped.configuration,
            repr(swapped.total_cost),
            swapped.memory,
            swapped.status,
        ),
        telemetry.snapshot().events,
        (statistics.calls, statistics.cache_hits),
    )


def _evictions(case) -> Counter:
    evictions = Counter()
    _swap_run(_reference_swap, case, evictions=evictions)
    return evictions


class TestSwapMatchesOracle:
    """Per-query best and second-best costs score every candidate
    exactly as restacking the selection did: same swaps, same victims,
    bit-identical costs, the same step events and what-if traffic."""

    @given(case=swap_cases())
    @settings(max_examples=150, deadline=None)
    def test_identical_to_restacking_rounds(self, case):
        assert _swap_run(swap_local_search, case) == _swap_run(
            _reference_swap, case
        )

    @pytest.mark.parametrize(
        "reached",
        [
            lambda counts: counts[0] > 0,
            lambda counts: counts[1] > 0,
            lambda counts: any(count >= 2 for count in counts),
        ],
        ids=["no-eviction", "one-eviction", "several-evictions"],
    )
    def test_cases_reach_every_eviction_count(self, reached):
        """The strategy prices trials that evict nothing, one index,
        and two or more — each its own path to the trial's best."""
        find(
            swap_cases(),
            lambda case: reached(_evictions(case)),
            settings=settings(max_examples=500, deadline=None),
        )

    @pytest.mark.parametrize("budget_columns", [0, 1, 1_000])
    def test_duplicate_columns_from_an_empty_start(self, budget_columns):
        """Two indexes with identical columns tie on every query; from
        an empty start, under budgets of none, one and many copies."""
        schema = Schema.build(
            {"T": (ROWS, [("A0", 40, 4), ("A1", 40, 4), ("A2", 2, 8)])}
        )
        workload = Workload(
            schema,
            [
                Query(0, "T", frozenset({0, 1}), 10.0),
                Query(1, "T", frozenset({0, 1, 2}), 5.0),
                Query(2, "T", frozenset({2}), 3.0, QueryKind.UPDATE),
            ],
        )
        candidates = syntactically_relevant_candidates(workload, 2)
        first, twin = (
            next(index for index in candidates if index.attributes == (a,))
            for a in (0, 1)
        )
        optimizer = WhatIfOptimizer(AnalyticalCostSource(CostModel(schema)))
        assert [
            optimizer.index_cost(query, first) for query in workload
        ] == [optimizer.index_cost(query, twin) for query in workload]
        budget = budget_columns * index_memory(schema, first)
        case = (workload, candidates, [], budget, 500)
        assert _swap_run(swap_local_search, case) == _swap_run(
            _reference_swap, case
        )
