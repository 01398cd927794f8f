"""Tests for the swap local search."""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.core.evaluation import price_columns
from repro.core.extend import ExtendAlgorithm
from repro.core.localsearch import _CostCache, _prune_pool, swap_local_search
from repro.core.steps import STATUS_DEGRADED, SelectionResult
from repro.cost import whatif
from repro.cost.kernel import VectorizedCostSource
from repro.cost.model import CostModel
from repro.cost.whatif import (
    AnalyticalCostSource,
    Applicability,
    WhatIfOptimizer,
)
from repro.exceptions import BudgetError
from repro.indexes.candidates import syntactically_relevant_candidates
from repro.indexes.configuration import IndexConfiguration
from repro.indexes.index import Index
from repro.indexes.memory import (
    configuration_memory,
    index_memory,
    relative_budget,
)
from repro.report import build_report
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

    def test_rejects_negative_max_pool_before_any_pricing(
        self, small_workload
    ):
        budget = relative_budget(small_workload.schema, 0.1)
        facade, start = _extend(small_workload, budget)
        before = facade.statistics.copy()
        with pytest.raises(BudgetError, match="max_pool"):
            swap_local_search(
                small_workload,
                facade,
                start,
                budget,
                syntactically_relevant_candidates(small_workload),
                max_pool=-3,
            )
        assert facade.statistics.since(before).total_requests == 0

    def test_zero_max_pool_prices_no_candidate(self, small_workload):
        """``max_pool=0`` empties the pool before any candidate is
        priced: the same what-if traffic and result as no candidates."""
        budget = relative_budget(small_workload.schema, 0.1)
        candidates = syntactically_relevant_candidates(small_workload)

        def run(pool, max_pool):
            facade, start = _extend(small_workload, budget)
            before = facade.statistics.copy()
            result = swap_local_search(
                small_workload, facade, start, budget, pool,
                max_pool=max_pool,
            )
            requests = facade.statistics.since(before).total_requests
            return (result.configuration, repr(result.total_cost)), requests

        assert run(candidates, 0) == run([], 500)
        facade, start = _extend(small_workload, budget)
        selected = set(start.configuration)
        cache = _CostCache(small_workload, facade)
        before = facade.statistics.copy()
        pool = [index for index in candidates if index not in selected]
        ranked = _prune_pool(cache, selected, pool, 0, Deadline.none())
        assert ranked == ([], 0)
        assert facade.statistics.since(before).total_requests == 0

    @pytest.mark.parametrize("writes", [False, True])
    def test_maintenance_is_priced_only_for_write_queries(
        self, small_workload, monkeypatch, writes
    ):
        """On a SELECT-only workload neither the swap pass nor the
        report asks for an index's maintenance (``index_maintenance``);
        with writes both do."""
        workload = small_workload
        if writes:
            workload = Workload(
                workload.schema,
                [
                    dataclasses.replace(query, kind=QueryKind.UPDATE)
                    if query.query_id % 4 == 0
                    else query
                    for query in workload
                ],
            )
        budget = relative_budget(workload.schema, 0.2)
        facade, start = _extend(workload, budget)
        priced = []
        index_maintenance = facade.index_maintenance

        def spy(index):
            priced.append(index)
            return index_maintenance(index)

        monkeypatch.setattr(facade, "index_maintenance", spy)
        result = swap_local_search(
            workload, facade, start, budget,
            syntactically_relevant_candidates(workload),
        )
        swap_priced = len(priced)
        build_report(workload, facade, result)
        if writes:
            assert swap_priced > 0 and len(priced) > swap_priced
        else:
            assert priced == []

    def test_query_kinds_are_read_once_not_per_index(
        self, small_workload, monkeypatch
    ):
        """The write queries are collected once: swap reads each
        query's kind at most once however many indexes it meets, and
        the report's reads do not grow with the selection."""
        reads = Counter()
        is_select = Query.is_select

        def counting(query):
            reads[query.query_id] += 1
            return is_select.fget(query)

        facade, start = _extend(
            small_workload, relative_budget(small_workload.schema, 0.05)
        )
        budget = relative_budget(small_workload.schema, 0.4)
        monkeypatch.setattr(Query, "is_select", property(counting))
        result = swap_local_search(
            small_workload, facade, start, budget,
            syntactically_relevant_candidates(small_workload),
        )
        assert max(reads.values()) == 1
        per_report = []
        for selection in (start, result):
            reads.clear()
            build_report(small_workload, facade, selection)
            per_report.append(sum(reads.values()))
        assert len(result.configuration) > len(start.configuration)
        assert per_report[0] == per_report[1]

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


def _eager_prune_pool(cache, selected, pool, max_pool):
    """The ranking before the gain bound: every candidate of the pool
    is priced and scored, and the ``max_pool`` best kept (stable)."""
    base = cache.per_query_best(sorted(selected, key=_by_name))
    scores = _eager_scores(cache, base, pool)
    kept = sorted(range(len(pool)), key=lambda position: -scores[position])
    return [pool[position] for position in kept[:max_pool]]


def _eager_scores(cache, base, pool):
    """What each pool candidate adds on top of ``base``, priced through
    the same zeroed buffer and dot as the ranking."""
    gain = np.zeros_like(base)
    scores = []
    for _, positions, costs in cache.applicability.price(
        cache.optimizer, pool
    ):
        gain[positions] = np.maximum(base[positions] - costs, 0.0)
        scores.append(float(np.dot(cache.weights, gain)))
        gain[positions] = 0.0
    return scores


def _group_bounds(cache, base, pool):
    """Each leading attribute's gain bound: the weighted ``base`` cost
    of the queries it applies to, through the ranking's buffer."""
    gain = np.zeros_like(base)
    bounds = {}
    for index in pool:
        if index.leading_attribute not in bounds:
            positions = cache.applicability.positions(index)
            gain[positions] = base[positions]
            bounds[index.leading_attribute] = float(
                np.dot(cache.weights, gain)
            )
            gain[positions] = 0.0
    return bounds


def _above_the_cut(workload, optimizer, selected, pool, max_pool):
    """The pool candidates whose group bound reaches the final cut (the
    ``max_pool``-th best gain of the whole pool) — exactly those the
    ranking has to price — derived eagerly on ``optimizer``."""
    cache = _CostCache(workload, optimizer)
    base = cache.per_query_best(sorted(selected, key=_by_name))
    gains = sorted(_eager_scores(cache, base, pool), reverse=True)
    cut = gains[max_pool - 1] if max_pool <= len(pool) else -math.inf
    bounds = _group_bounds(cache, base, pool)
    return [
        index for index in pool if bounds[index.leading_attribute] >= cut
    ]


def _price_columns_once(workload, optimizer, indexes):
    """Price each index's applicable pairs once, per query (the
    accounting reference for the ranking and the rounds)."""
    queries = workload.queries
    for index in indexes:
        optimizer.pair_costs(
            [
                (query, index)
                for query in queries
                if index.is_applicable_to(query)
            ]
        )


class _PairRecorder(RecordingKernel):
    """The recording kernel, also remembering every priced index."""

    def __init__(self, schema) -> None:
        super().__init__(schema)
        self.indexes: set[Index] = set()

    def pair_costs(self, pairs):
        pairs = tuple(pairs)
        self.indexes.update(index for _, index in pairs)
        return super().pair_costs(pairs)


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
        kept, priced = _prune_pool(
            _CostCache(small_workload, facade),
            set(start.configuration),
            pool,
            cut,
            Deadline.none(),
        )
        assert kept == ranking[:cut]
        assert cut < priced < len(pool)

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

    def test_prices_each_group_above_the_cut_once(
        self, small_workload, case
    ):
        """Swap's what-if traffic is the sequential column, the selected
        columns and every candidate of a group whose bound reaches the
        cut, each priced once — and the bound left some group out."""
        budget, candidates, pool, _, cut = case
        facade, start = _extend(small_workload, budget)
        swap_local_search(
            small_workload, facade, start, budget, candidates, max_pool=cut
        )
        selected = set(start.configuration)
        scratch, _ = _extend(small_workload, budget)
        above = _above_the_cut(small_workload, scratch, selected, pool, cut)
        assert cut <= len(above) < len(pool)
        reference, _ = _extend(small_workload, budget)
        reference.sequential_costs(small_workload.queries)
        _price_columns_once(
            small_workload,
            reference,
            [*sorted(selected, key=_by_name), *above],
        )
        assert facade.statistics.calls == reference.statistics.calls
        assert (
            facade.statistics.cache_hits == reference.statistics.cache_hits
        )

    def test_no_pair_below_the_cut_reaches_the_backend(
        self, small_workload, case
    ):
        budget, _, pool, _, cut = case
        _, start = _extend(small_workload, budget)
        selected = set(start.configuration)
        scratch, _ = _extend(small_workload, budget)
        above = _above_the_cut(small_workload, scratch, selected, pool, cut)
        recorder = _PairRecorder(small_workload.schema)
        _prune_pool(
            _CostCache(small_workload, WhatIfOptimizer(recorder)),
            selected,
            pool,
            cut,
            Deadline.none(),
        )
        assert recorder.indexes - selected - {None} == set(above)
        assert set(above) < set(pool)

    def test_pool_span_counts_priced_and_pruned(self, small_workload, case):
        budget, candidates, pool, _, cut = case
        facade, start = _extend(small_workload, budget)
        telemetry = Telemetry()
        swap_local_search(
            small_workload, facade, start, budget, candidates,
            max_pool=cut, telemetry=telemetry,
        )
        snapshot = telemetry.snapshot()
        [span] = [
            span for span in snapshot.spans
            if span.name == "localsearch.pool"
        ]
        priced, pruned = span.attributes["priced"], span.attributes["pruned"]
        scratch, _ = _extend(small_workload, budget)
        above = _above_the_cut(
            small_workload, scratch, set(start.configuration), pool, cut
        )
        assert priced == len(above)
        assert priced + pruned == len(pool)
        assert snapshot.metrics["localsearch.pool_pruned"] == pruned > 0

    def test_deadline_expiring_during_pool_pricing(
        self, small_workload, case, monkeypatch
    ):
        """Ranking stops once the first priced candidate's costs arrive
        and the input comes back tagged degraded, as at a round
        boundary."""
        budget, candidates, pool, _, cut = case
        monkeypatch.setattr(whatif, "PAIR_CHUNK", 8)
        queries = small_workload.queries
        _, start = _extend(small_workload, budget)
        selected = set(start.configuration)

        def run(deadline):
            source = RecordingKernel(small_workload.schema)
            facade = WhatIfOptimizer(source)
            # Only the sequential and selected columns are cached: every
            # pair batch the backend sees during swap is a pool chunk.
            facade.sequential_costs(queries)
            price_columns(facade, queries, start.configuration)
            source.pair_batches.clear()
            source.on_pair_batch = lambda: clock.advance(10.0)
            result = swap_local_search(
                small_workload, facade, start, budget, candidates,
                max_pool=cut, deadline=deadline,
            )
            return result, len(source.pair_batches)

        # The first priced candidate opens the group with the largest
        # bound (ties in pool order); its pairs span this many chunks.
        cache = _CostCache(
            small_workload,
            WhatIfOptimizer(VectorizedCostSource(small_workload.schema)),
        )
        bounds = _group_bounds(
            cache, cache.per_query_best(sorted(selected, key=_by_name)), pool
        )
        first = max(pool, key=lambda index: bounds[index.leading_attribute])
        chunks = math.ceil(
            len(Applicability(queries).positions(first)) / whatif.PAIR_CHUNK
        )
        clock = ManualClock()
        result, batches = run(Deadline(5.0, clock=clock))
        assert batches == chunks
        assert result.status == STATUS_DEGRADED
        assert result.configuration == start.configuration
        assert result.total_cost == pytest.approx(start.total_cost)
        unbounded, batches = run(None)
        assert batches > chunks
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
        pool, _ = _prune_pool(
            cache, selected, pool, max_pool, Deadline.none()
        )
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
                    else None
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
def swap_cases(draw, pools=(3, 500)):
    """A workload of two tables with write templates, a starting
    selection (possibly empty), a budget near its memory, and a pool
    cap from ``pools``.  ``A1`` is ``A0``'s twin — the same statistics,
    and queried only together with it — so every index on one has a
    duplicate cost column on the other, and ties between selected and
    candidate columns are common."""
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
    max_pool = draw(st.sampled_from(pools))
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


# ----------------------------------------------------------------------
# Oracle: the eager ranking that priced the whole pool
# ----------------------------------------------------------------------


def _analytic(workload):
    return WhatIfOptimizer(AnalyticalCostSource(CostModel(workload.schema)))


def _ranking_run(case):
    """The bounded ranking of the case's pool on a fresh facade: the
    kept list, the candidates priced, and the what-if statistics."""
    workload, candidates, start, _, max_pool = case
    optimizer = _analytic(workload)
    selected = set(start)
    pool = [index for index in candidates if index not in selected]
    kept, priced = _prune_pool(
        _CostCache(workload, optimizer),
        selected,
        pool,
        max_pool,
        Deadline.none(),
    )
    statistics = optimizer.statistics
    return kept, priced, (statistics.calls, statistics.cache_hits)


def _ranking_reference(case):
    """The eager kept list, the candidates a bounded ranking must price,
    and the statistics of pricing the selection and exactly those
    candidates once on a fresh facade."""
    workload, candidates, start, _, max_pool = case
    selected = set(start)
    pool = [index for index in candidates if index not in selected]
    kept = _eager_prune_pool(
        _CostCache(workload, _analytic(workload)), selected, pool, max_pool
    )
    above = _above_the_cut(
        workload, _analytic(workload), selected, pool, max_pool
    )
    optimizer = _analytic(workload)
    _CostCache(workload, optimizer).per_query_best(
        sorted(selected, key=_by_name)
    )
    _price_columns_once(workload, optimizer, above)
    statistics = optimizer.statistics
    return kept, above, (statistics.calls, statistics.cache_hits)


def _ranking_regimes(case):
    """Which regimes of the bounded ranking a case exercises."""
    workload, candidates, start, _, max_pool = case
    pool = [index for index in candidates if index not in start]
    if len(pool) <= max_pool:
        return set()
    cache = _CostCache(workload, _analytic(workload))
    base = cache.per_query_best(sorted(start, key=_by_name))
    gains = sorted(_eager_scores(cache, base, pool), reverse=True)
    cut = gains[max_pool - 1]
    regimes = set()
    if min(_group_bounds(cache, base, pool).values()) < cut:
        regimes.add("pruned")
    if cut == 0.0:
        regimes.add("cut-of-zero")
    if cut == gains[max_pool] > 0.0:
        regimes.add("tie-across-the-cut")
    return regimes


RANKING_POOLS = (1, 3, 500)


class TestPoolRankingMatchesEager:
    """The bounded ranking keeps exactly the eager ranking's list, and
    prices exactly the groups whose bound reaches the cut, once."""

    @given(case=swap_cases(pools=RANKING_POOLS))
    @settings(max_examples=200, deadline=None)
    def test_identical_kept_list_and_exact_calls(self, case):
        kept, priced, statistics = _ranking_run(case)
        eager, above, expected = _ranking_reference(case)
        assert kept == eager
        assert priced == len(above)
        assert statistics == expected

    @pytest.mark.parametrize(
        "regime", ["pruned", "cut-of-zero", "tie-across-the-cut"]
    )
    @pytest.mark.parametrize("max_pool", RANKING_POOLS[:2])
    def test_cases_reach_every_regime(self, regime, max_pool):
        """At the small caps the strategy reaches a group left unpriced,
        a cut of 0 (every group priced) and a tie across the cut (the
        cap of 500 exceeds every pool: nothing is cut)."""
        find(
            swap_cases(pools=(max_pool,)),
            lambda case: regime in _ranking_regimes(case),
            settings=settings(
                max_examples=500, deadline=None, phases=[Phase.generate]
            ),
        )

    @pytest.mark.parametrize("size", [1, 16])
    def test_a_bound_equal_to_the_cut_is_priced(self, size):
        """``(1,)`` and ``(0, 1)`` cost nothing, so each gains exactly
        its twin group's bound, and ``(1,)`` comes first in pool order:
        its group's bound only ties the cut and must still be priced.
        With sixteen queries, three of them on A0 and A1, a dot over
        just those three sums in another order than the ranking's
        buffer and can round below the gain."""
        schema = Schema.build(
            {"T": (ROWS, [(f"A{i}", 40, 4) for i in range(6)])}
        )
        if size == 1:
            attributes, sequential = [frozenset({0, 1})], [10.0]
        else:
            twins = iter([{0, 1}, {0, 1, 2}, {0, 1, 3}])
            rest = iter(
                combination
                for width in (1, 2, 3)
                for combination in itertools.combinations(range(2, 6), width)
            )
            attributes = [
                frozenset(next(twins) if position in (0, 1, 3) else next(rest))
                for position in range(size)
            ]
            sequential = [1e16] + [1.0] * (size - 1)
        workload = Workload(
            schema,
            [
                Query(position, "T", subset, 1.0)
                for position, subset in enumerate(attributes)
            ],
        )
        first, twin, pair = (
            Index.of(schema, columns) for columns in ((0,), (1,), (0, 1))
        )

        class FixedCosts:
            def query_cost(self, query, index):
                cost = sequential[query.query_id]
                if index is None:
                    return cost
                return cost / 2 if index == first else 0.0

        pool = [first, twin, pair]

        def cache():
            return _CostCache(workload, WhatIfOptimizer(FixedCosts()))

        kept, priced = _prune_pool(cache(), set(), pool, 1, Deadline.none())
        assert kept == _eager_prune_pool(cache(), set(), pool, 1) == [twin]
        assert priced == 3
