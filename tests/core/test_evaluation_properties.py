"""Property-based equivalence: incremental engine vs the naive scan.

The incremental candidate-evaluation engine must be *observationally
identical* to the exhaustive re-evaluation loop it replaced: same step
sequence, same final configuration, same memory, same cost — for every
workload and budget.  These tests hammer that guarantee with randomized
workloads drawn from the same Hypothesis strategies as the integration
property suite, and with multi-table workloads that contain UPDATEs and
INSERTs.  The naive oracle shares Extend's construction state (and so
its index-maintenance bookkeeping), so the write-workload runs are also
checked against a fresh facade's ``workload_cost`` of the answer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import EvaluationConfig
from repro.core.extend import ExtendAlgorithm
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.indexes.memory import relative_budget
from repro.workload.query import Query, QueryKind, Workload
from repro.workload.schema import Schema
from tests.integration.test_properties import random_workloads


@st.composite
def write_workloads(draw):
    """1–3 tables of 2–5 attributes each; every query reads, updates or
    inserts into one table."""
    table_count = draw(st.integers(min_value=1, max_value=3))
    specs = {}
    for table in range(table_count):
        rows = draw(st.sampled_from((1, 50, 10_000)))
        columns = [
            (
                f"A{position}",
                draw(st.integers(min_value=1, max_value=rows)),
                draw(st.integers(min_value=1, max_value=16)),
            )
            for position in range(draw(st.integers(min_value=2, max_value=5)))
        ]
        specs[f"T{table}"] = (rows, columns)
    schema = Schema.build(specs)
    queries = []
    for query_id in range(draw(st.integers(min_value=1, max_value=10))):
        table = schema.tables[
            draw(st.integers(min_value=0, max_value=table_count - 1))
        ]
        attributes = draw(
            st.sets(
                st.sampled_from([a.id for a in table.attributes]),
                min_size=1,
            )
        )
        queries.append(
            Query(
                query_id,
                table.name,
                frozenset(attributes),
                float(draw(st.integers(min_value=1, max_value=1000))),
                kind=draw(st.sampled_from(tuple(QueryKind))),
            )
        )
    return Workload(schema, queries)


def _run(workload, share, evaluation, **kwargs):
    """One Extend run with a fresh optimizer (independent cache/stats)."""
    optimizer = WhatIfOptimizer(
        AnalyticalCostSource(CostModel(workload.schema))
    )
    budget = relative_budget(workload.schema, share)
    result = ExtendAlgorithm(
        optimizer, evaluation=evaluation, **kwargs
    ).select(workload, budget)
    return result, optimizer


def _assert_equivalent(reference, candidate):
    assert candidate.step_trace() == reference.step_trace()
    assert (
        candidate.configuration_signature()
        == reference.configuration_signature()
    )
    assert candidate.memory == reference.memory
    assert candidate.total_cost == pytest.approx(
        reference.total_cost, rel=1e-12
    )


class TestIncrementalEquivalence:
    """``EvaluationConfig(naive=True)`` is the ground truth; the
    incremental engine must match it exactly.  100 examples, plus the
    variant/frugality suites below."""

    @given(
        workload=random_workloads(),
        share=st.floats(min_value=0.0, max_value=0.6),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_scan(self, workload, share):
        naive, _ = _run(workload, share, EvaluationConfig(naive=True))
        incremental, _ = _run(workload, share, EvaluationConfig())
        _assert_equivalent(naive, incremental)

    @given(
        workload=random_workloads(),
        share=st.floats(min_value=0.0, max_value=0.6),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_scan_with_variant_knobs(self, workload, share):
        knobs = dict(
            n_best_singles=3,
            prune_unused=True,
            pair_seeds=True,
            missed_opportunities=2,
        )
        naive, _ = _run(
            workload, share, EvaluationConfig(naive=True), **knobs
        )
        incremental, _ = _run(workload, share, EvaluationConfig(), **knobs)
        _assert_equivalent(naive, incremental)

    @given(
        workload=random_workloads(),
        share=st.floats(min_value=0.0, max_value=0.6),
    )
    @settings(max_examples=25, deadline=None)
    def test_never_costs_more_what_if_calls(self, workload, share):
        """Laziness + reuse must not *increase* backend traffic."""
        _, naive_optimizer = _run(
            workload, share, EvaluationConfig(naive=True)
        )
        _, incremental_optimizer = _run(
            workload, share, EvaluationConfig()
        )
        assert (
            incremental_optimizer.statistics.calls
            <= naive_optimizer.statistics.calls
        )


class TestWriteWorkloads:
    """Naive ≡ incremental on multi-table workloads with writes, under
    the Extend knobs that change which moves stay in the pool; each
    answer's cost also equals a fresh facade's pricing of it."""

    @staticmethod
    def _check(workload, share, **knobs):
        naive, _ = _run(workload, share, EvaluationConfig(naive=True), **knobs)
        incremental, optimizer = _run(
            workload, share, EvaluationConfig(), **knobs
        )
        _assert_equivalent(naive, incremental)
        fresh = WhatIfOptimizer(
            AnalyticalCostSource(CostModel(workload.schema))
        ).workload_cost(workload, incremental.configuration)
        assert incremental.total_cost == pytest.approx(fresh, rel=1e-9)
        assert (
            optimizer.statistics.calls <= naive.whatif_calls
        )

    @given(
        workload=write_workloads(),
        share=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_scan(self, workload, share):
        self._check(workload, share)

    @given(
        workload=write_workloads(),
        share=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_scan_without_skipping_oversized(
        self, workload, share
    ):
        self._check(workload, share, skip_oversized=False)

    @given(
        workload=write_workloads(),
        share=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_scan_with_pruning_alone(self, workload, share):
        self._check(workload, share, prune_unused=True)


class TestRunSelectionOracle:
    def test_naive_config_matches_incremental(self, small_workload):
        """The oracle reached through ``run_selection`` (the advisor's
        and service's selection engine) produces identical output."""
        from repro.advisor import run_selection
        from repro.cost.kernel import VectorizedCostSource

        budget = relative_budget(small_workload.schema, 0.2)
        results = {}
        for naive in (False, True):
            extend = run_selection(
                small_workload,
                budget,
                algorithm="extend",
                optimizer=WhatIfOptimizer(
                    VectorizedCostSource(small_workload.schema)
                ),
                evaluation=EvaluationConfig(naive=naive),
            )
            results[naive] = (
                extend.step_trace(),
                extend.configuration_signature(),
                extend.memory,
                extend.total_cost,
            )
        assert results[False][:3] == results[True][:3]
        assert results[False][3] == pytest.approx(
            results[True][3], rel=1e-12
        )
