"""Tests for the advisor report."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extend import ExtendAlgorithm
from repro.core.steps import SelectionResult
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.exceptions import ExperimentError
from repro.indexes.configuration import IndexConfiguration
from repro.indexes.index import Index
from repro.indexes.memory import index_memory, relative_budget
from repro.report import build_report
from repro.workload.query import Query, QueryKind, Workload
from repro.workload.schema import Schema
from tests.core.test_localsearch import swap_cases


@pytest.fixture
def selection(tiny_workload, tiny_optimizer):
    budget = relative_budget(tiny_workload.schema, 0.5)
    return ExtendAlgorithm(tiny_optimizer).select(tiny_workload, budget)


class TestBuildReport:
    def test_improvement_factor(self, tiny_workload, tiny_optimizer, selection):
        report = build_report(tiny_workload, tiny_optimizer, selection)
        assert report.improvement_factor > 1.0
        assert report.baseline_cost == pytest.approx(
            tiny_optimizer.workload_cost(tiny_workload, ())
        )

    def test_one_entry_per_selected_index(
        self, tiny_workload, tiny_optimizer, selection
    ):
        report = build_report(tiny_workload, tiny_optimizer, selection)
        assert len(report.indexes) == len(selection.configuration)
        assert {entry.index for entry in report.indexes} == set(
            selection.configuration
        )

    def test_entries_sorted_by_marginal_benefit(
        self, tiny_workload, tiny_optimizer, selection
    ):
        report = build_report(tiny_workload, tiny_optimizer, selection)
        benefits = [entry.marginal_benefit for entry in report.indexes]
        assert benefits == sorted(benefits, reverse=True)

    def test_marginal_benefits_nonnegative(
        self, tiny_workload, tiny_optimizer, selection
    ):
        report = build_report(tiny_workload, tiny_optimizer, selection)
        for entry in report.indexes:
            assert entry.marginal_benefit >= -1e-9

    def test_serves_references_real_queries(
        self, tiny_workload, tiny_optimizer, selection
    ):
        report = build_report(tiny_workload, tiny_optimizer, selection)
        valid_ids = {query.query_id for query in tiny_workload}
        for entry in report.indexes:
            assert set(entry.serves) <= valid_ids

    def test_residual_queries_sorted_and_capped(
        self, tiny_workload, tiny_optimizer, selection
    ):
        report = build_report(
            tiny_workload, tiny_optimizer, selection, hot_spot_count=3
        )
        assert len(report.residual_queries) == 3
        costs = [cost for _, cost in report.residual_queries]
        assert costs == sorted(costs, reverse=True)

    def test_rejects_negative_hot_spot_count(
        self, tiny_workload, tiny_optimizer, selection
    ):
        with pytest.raises(ExperimentError, match="hot_spot_count"):
            build_report(
                tiny_workload,
                tiny_optimizer,
                selection,
                hot_spot_count=-1,
            )


class TestRender:
    def test_render_contains_key_sections(
        self, tiny_workload, tiny_optimizer, selection
    ):
        report = build_report(tiny_workload, tiny_optimizer, selection)
        text = report.render(tiny_workload)
        assert "# Index advisor report" in text
        assert "## Selected indexes" in text
        assert "x better" in text
        for entry in report.indexes:
            assert entry.index.label(tiny_workload.schema) in text

    def test_render_mentions_maintenance_for_write_workloads(
        self, tiny_schema
    ):
        from repro.cost.model import CostModel
        from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
        from repro.workload.query import Query, QueryKind, Workload

        workload = Workload(
            tiny_schema,
            [
                Query(0, "ORDERS", frozenset({0}), 100.0),
                Query(
                    1,
                    "ORDERS",
                    frozenset({0}),
                    50.0,
                    kind=QueryKind.UPDATE,
                ),
            ],
        )
        optimizer = WhatIfOptimizer(
            AnalyticalCostSource(CostModel(tiny_schema))
        )
        budget = relative_budget(tiny_schema, 1.0)
        result = ExtendAlgorithm(optimizer).select(workload, budget)
        if result.configuration.is_empty:
            pytest.skip("maintenance outweighed all read benefits")
        report = build_report(workload, optimizer, result)
        assert "write maintenance" in report.render(workload)


# ----------------------------------------------------------------------
# Oracle: leave-one-out re-costing
# ----------------------------------------------------------------------


def _leave_one_out(workload, optimizer, configuration):
    """Each index's marginal benefit the long way: the whole workload
    re-costed without it, minus the cost with everything."""
    total = optimizer.workload_cost(workload, configuration)
    return {
        index: optimizer.workload_cost(
            workload, configuration.without_index(index)
        )
        - total
        for index in configuration
    }


def _reference_report(workload, optimizer, result):
    """The report fields besides ``marginal_benefit``, computed as
    before: serves, maintenance, memory, baseline and residuals."""
    configuration = result.configuration
    serves = {index: [] for index in configuration}
    per_query_cost = {}
    for query in workload:
        best_cost = optimizer.sequential_cost(query)
        best_index = None
        for index in configuration.applicable_to(query):
            cost = optimizer.index_cost(query, index)
            if cost < best_cost:
                best_cost, best_index = cost, index
        per_query_cost[query.query_id] = (
            query.frequency
            * optimizer.configuration_cost(query, configuration)
        )
        if best_index is not None:
            serves[best_index].append(query.query_id)
    entries = {
        index: (
            index_memory(workload.schema, index),
            tuple(serves[index]),
            sum(
                query.frequency * optimizer.maintenance_cost(query, index)
                for query in workload
                if not query.is_select
            ),
        )
        for index in configuration
    }
    residual = sorted(
        (
            (workload.query(query_id), cost)
            for query_id, cost in per_query_cost.items()
        ),
        key=lambda entry: -entry[1],
    )[:5]  # build_report's default hot_spot_count
    return (
        optimizer.workload_cost(workload, ()),
        entries,
        tuple(residual),
    )


def _assert_matches_leave_one_out(workload, optimizer, result):
    report = build_report(workload, optimizer, result)
    total = optimizer.workload_cost(workload, result.configuration)
    tolerance = 1e-9 * total
    marginal = _leave_one_out(workload, optimizer, result.configuration)
    baseline, entries, residual = _reference_report(
        workload, optimizer, result
    )
    assert report.baseline_cost == baseline
    assert report.residual_queries == residual
    assert {entry.index for entry in report.indexes} == set(entries)
    for entry in report.indexes:
        assert (
            entry.memory,
            entry.serves,
            entry.maintenance_load,
        ) == entries[entry.index]
        assert abs(entry.marginal_benefit - marginal[entry.index]) <= (
            tolerance
        )
    # The order is leave-one-out's, but for entries that tie within
    # the tolerance.
    ranked = [marginal[entry.index] for entry in report.indexes]
    for higher, lower in zip(ranked, ranked[1:]):
        assert higher >= lower - 2 * tolerance


def _given_selection(workload, optimizer, indexes):
    configuration = IndexConfiguration(indexes)
    return SelectionResult(
        algorithm="given",
        configuration=configuration,
        total_cost=optimizer.workload_cost(workload, configuration),
        memory=configuration.memory(workload.schema),
        budget=float(configuration.memory(workload.schema)),
        runtime_seconds=0.0,
        whatif_calls=0,
    )


class TestMarginalBenefitOracle:
    """One best/second-best pass equals leave-one-out re-costing."""

    @given(case=swap_cases(), writes=st.booleans(), extend=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_leave_one_out(self, case, writes, extend):
        """On Extend's selections and on arbitrary ones (which often
        hold tied or useless indexes), with and without writes."""
        workload, _, start, budget, _ = case
        if not writes:
            workload = Workload(
                workload.schema,
                [
                    Query(
                        query.query_id,
                        query.table_name,
                        query.attributes,
                        query.frequency,
                    )
                    for query in workload
                ],
            )
        optimizer = WhatIfOptimizer(
            AnalyticalCostSource(CostModel(workload.schema))
        )
        result = (
            ExtendAlgorithm(optimizer).select(workload, budget)
            if extend
            else _given_selection(workload, optimizer, start)
        )
        _assert_matches_leave_one_out(workload, optimizer, result)

    def test_matches_leave_one_out_on_small_workload(
        self, small_workload, small_optimizer
    ):
        for share in (0.1, 0.3, 1.0):
            result = ExtendAlgorithm(small_optimizer).select(
                small_workload, relative_budget(small_workload.schema, share)
            )
            _assert_matches_leave_one_out(
                small_workload, small_optimizer, result
            )

    def test_fully_tied_index_is_worth_minus_its_maintenance(self):
        """An index whose every served query another index ties gains
        nothing from serving them: its marginal benefit is exactly its
        negated maintenance load."""
        schema = Schema.build(
            {"T": (10_000, [("X", 100, 4), ("Y", 100, 4), ("Z", 10, 4)])}
        )
        workload = Workload(
            schema,
            [
                Query(0, "T", frozenset({0, 1}), 10.0),
                Query(1, "T", frozenset({2}), 5.0, QueryKind.INSERT),
            ],
        )
        optimizer = WhatIfOptimizer(AnalyticalCostSource(CostModel(schema)))
        on_x, on_y = Index.of(schema, (0,)), Index.of(schema, (1,))
        query = workload.query(0)
        assert optimizer.index_cost(query, on_x) == optimizer.index_cost(
            query, on_y
        ) < optimizer.sequential_cost(query)
        result = _given_selection(workload, optimizer, [on_x, on_y])
        report = build_report(workload, optimizer, result)
        entry = next(e for e in report.indexes if e.index == on_x)
        assert entry.serves == (0,)
        assert entry.maintenance_load > 0
        assert entry.marginal_benefit == -entry.maintenance_load
