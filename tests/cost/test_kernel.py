"""Tests of the compiled, vectorized cost kernel.

The contract under test (see ``docs/COST_MODEL.md``, "Compiled
kernel"): every vectorized cost matches the scalar
:class:`~repro.cost.model.CostModel` within 1e-9 relative tolerance,
maintenance/multi-index delegation is bit-identical, repeated pricing
of a query is deterministic down to the bit regardless of batch shape,
and the batch facade entry points replicate per-pair
:class:`~repro.cost.whatif.WhatIfStatistics` accounting exactly.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.evaluation import price_columns
from repro.cost.kernel import (
    CompiledWorkload,
    KernelStatistics,
    VectorizedCostSource,
)
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.indexes.candidates import syntactically_relevant_candidates
from repro.indexes.index import Index
from repro.telemetry import Telemetry
from repro.workload.query import Query, QueryKind, Workload
from repro.workload.schema import Schema

from tests.integration.test_properties import (
    random_workloads,
    schema_query_and_index,
)

REL = 1e-9


def _column(source, queries, index):
    """One ``pair_costs`` batch pairing every query with ``index``."""
    return source.pair_costs([(query, index) for query in queries])


def _assert_pair_equivalence(schema, queries, indexes):
    """Every (query, index) pair agrees between scalar and vectorized."""
    model = CostModel(schema)
    kernel = VectorizedCostSource(schema)
    sequential = _column(kernel, queries, None)
    for query, cost in zip(queries, sequential):
        assert cost == pytest.approx(
            model.sequential_cost(query), rel=REL
        )
    for index in indexes:
        column = _column(kernel, queries, index)
        for query, cost in zip(queries, column):
            reference = (
                model.index_cost(query, index)
                if index.is_applicable_to(query)
                else model.sequential_cost(query)
            )
            assert cost == pytest.approx(reference, rel=REL)


class TestCompiledWorkload:
    def test_rows_are_selectivity_ordered_and_padded(self, tiny_schema):
        kernel = VectorizedCostSource(tiny_schema)
        queries = (
            Query(0, "ORDERS", frozenset({0, 2, 3}), 1.0),
            Query(1, "ORDERS", frozenset({1}), 1.0),
        )
        _column(kernel, queries, None)
        pack, row = kernel._placements(queries[:1])[0]
        assert isinstance(pack, CompiledWorkload)
        assert pack.query_count == 2
        assert pack.padded_width == 3
        # ORDERS: ID (d=10000, s=1e-4) < REGION (d=20) < STATUS (d=5).
        assert list(pack.attribute_ids[row]) == [0, 3, 2]
        assert pack.valid[row].all()
        # The single-attribute query is padded with arithmetic no-ops.
        _, other = kernel._placements(queries[1:])[0]
        assert list(pack.attribute_ids[other]) == [1, -1, -1]
        assert list(pack.valid[other]) == [True, False, False]
        assert pack.selectivity[other, 1] == 1.0
        assert pack.value_size[other, 1] == 0.0

    def test_sequential_precomputed_matches_scalar(self, tiny_workload):
        schema = tiny_workload.schema
        kernel = VectorizedCostSource(schema)
        model = CostModel(schema)
        costs = _column(kernel, tiny_workload.queries, None)
        for query, cost in zip(tiny_workload.queries, costs):
            assert cost == pytest.approx(
                model.sequential_cost(query), rel=REL
            )

    def test_insert_rows_price_at_append_cost(self, tiny_schema):
        kernel = VectorizedCostSource(tiny_schema)
        model = CostModel(tiny_schema)
        insert = Query(
            0, "ORDERS", frozenset({0, 1}), 1.0, kind=QueryKind.INSERT
        )
        assert kernel.query_cost(insert, None) == model.sequential_cost(
            insert
        )
        # No index ever helps an INSERT.
        index = Index.of(tiny_schema, (0, 1))
        assert kernel.query_cost(insert, index) == model.index_cost(
            insert, index
        )

    def test_priced_queries_are_not_kept_alive(self, tiny_schema):
        """Pack rows are keyed by content, not by query object: a priced
        query is freed once its caller drops it, and a content-equal
        query reuses its row."""
        kernel = VectorizedCostSource(tiny_schema)
        index = Index.of(tiny_schema, (0,))
        query = Query(0, "ORDERS", frozenset({0, 2}), 1.0)
        cost = kernel.pair_costs([(query, index)])[0]
        probe = weakref.ref(query)
        del query
        gc.collect()
        assert probe() is None
        twin = Query(7, "ORDERS", frozenset({0, 2}), 3.0)
        assert kernel.pair_costs([(twin, index)])[0] == cost
        assert kernel.statistics.compiled_queries == 1

    def test_concurrent_first_sight_compiles_each_content_once(
        self, small_workload
    ):
        """Threads pricing overlapping batches of unseen queries at once
        bind every content to one pack row: nothing compiles twice, and
        every cost equals a single-threaded kernel's."""
        queries = small_workload.queries
        reference = VectorizedCostSource(small_workload.schema)
        batches = [queries[start::3] for start in range(3)] + [
            queries,
            queries[::-1],
        ]
        expected = [
            _column(reference, batch, None).tolist() for batch in batches
        ]

        def run(slot, batch):
            barrier.wait(timeout=10)
            results[slot] = _column(kernel, batch, None).tolist()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                kernel = VectorizedCostSource(small_workload.schema)
                results: dict[int, list[float]] = {}
                barrier = threading.Barrier(len(batches))
                threads = [
                    threading.Thread(target=run, args=entry)
                    for entry in enumerate(batches)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert kernel.statistics.compiled_queries == len(
                    {query.cache_key for query in queries}
                )
                assert [results[slot] for slot in range(len(batches))] == (
                    expected
                )
        finally:
            sys.setswitchinterval(interval)

    def test_queries_bind_to_first_pack_permanently(self, tiny_workload):
        kernel = VectorizedCostSource(tiny_workload.schema)
        queries = tiny_workload.queries
        first = kernel._placements(queries)
        again = kernel._placements(tuple(reversed(queries)))
        assert kernel.statistics.compiled_workloads == 1
        assert {id(pack) for pack, _ in first} == {
            id(pack) for pack, _ in again
        }


class TestScalarEquivalence:
    def test_tiny_workload_all_pairs(self, tiny_workload):
        _assert_pair_equivalence(
            tiny_workload.schema,
            tiny_workload.queries,
            syntactically_relevant_candidates(tiny_workload, 3),
        )

    def test_small_workload_all_pairs(self, small_workload):
        _assert_pair_equivalence(
            small_workload.schema,
            small_workload.queries,
            syntactically_relevant_candidates(small_workload, 3),
        )

    def test_maintenance_is_bit_identical(self, tiny_schema):
        kernel = VectorizedCostSource(tiny_schema)
        model = CostModel(tiny_schema)
        queries = (
            Query(
                0, "ORDERS", frozenset({1, 2}), 1.0, kind=QueryKind.UPDATE
            ),
            Query(
                1, "ORDERS", frozenset({0}), 1.0, kind=QueryKind.INSERT
            ),
        )
        index = Index.of(tiny_schema, (1, 3))
        for query in queries:
            assert WhatIfOptimizer(kernel).maintenance_cost(
                query, index
            ) == model.maintenance_cost(query, index)

    def test_batch_and_scalar_entry_points_are_bitwise_equal(
        self, small_workload
    ):
        """One query must price identically via every entry point."""
        kernel = VectorizedCostSource(small_workload.schema)
        queries = small_workload.queries
        for index in syntactically_relevant_candidates(small_workload, 2):
            whole = _column(kernel, queries, index)
            subset = _column(kernel, queries[::2], index)
            np.testing.assert_array_equal(whole[::2], subset)
            for position in (0, len(queries) - 1):
                assert (
                    kernel.query_cost(queries[position], index)
                    == whole[position]
                )

    @given(random_workloads())
    @settings(max_examples=50, deadline=None)
    def test_random_workloads_within_tolerance(self, workload):
        _assert_pair_equivalence(
            workload.schema,
            workload.queries,
            syntactically_relevant_candidates(workload, 3),
        )

    @given(schema_query_and_index())
    @settings(max_examples=200, deadline=None)
    def test_random_pairs_within_tolerance(self, data):
        schema, query, index = data
        model = CostModel(schema)
        kernel = VectorizedCostSource(schema)
        assert kernel.query_cost(query, None) == pytest.approx(
            model.sequential_cost(query), rel=REL
        )
        assert kernel.query_cost(query, index) == pytest.approx(
            model.index_cost(query, index)
            if index.is_applicable_to(query)
            else model.sequential_cost(query),
            rel=REL,
        )


class TestEdgeCases:
    def test_empty_usable_prefix_prices_at_sequential(self, tiny_schema):
        """Same table, but the leading index attribute is absent."""
        model = CostModel(tiny_schema)
        kernel = VectorizedCostSource(tiny_schema)
        query = Query(0, "ORDERS", frozenset({1, 2}), 1.0)
        index = Index.of(tiny_schema, (3, 1))
        assert not index.is_applicable_to(query)
        vectorized = kernel.query_cost(query, index)
        # The scalar model clamps to its sequential cost; the kernel
        # must clamp to *its own* sequential (bitwise), and both agree
        # within the cross-backend tolerance.
        assert vectorized == kernel.query_cost(query, None)
        assert vectorized == pytest.approx(
            model.index_cost(query, index), rel=REL
        )
        assert model.index_cost(query, index) == model.sequential_cost(
            query
        )

    def test_selectivity_one_attributes(self):
        """distinct=1 attributes (selectivity 1.0) filter nothing."""
        schema = Schema.build(
            {
                "T": (
                    5_000,
                    [
                        ("CONST", 1, 8),
                        ("FLAG", 1, 2),
                        ("KEY", 5_000, 4),
                    ],
                )
            }
        )
        queries = (
            Query(0, "T", frozenset({0, 1, 2}), 1.0),
            Query(1, "T", frozenset({0}), 1.0),
        )
        indexes = [
            Index.of(schema, (0,)),
            Index.of(schema, (0, 1)),
            Index.of(schema, (2, 0)),
        ]
        _assert_pair_equivalence(schema, queries, indexes)

    def test_single_attribute_queries(self, tiny_schema):
        queries = tuple(
            Query(position, "ORDERS", frozenset({attribute_id}), 1.0)
            for position, attribute_id in enumerate(range(4))
        )
        indexes = [
            Index.of(tiny_schema, (attribute_id,))
            for attribute_id in range(4)
        ]
        _assert_pair_equivalence(tiny_schema, queries, indexes)

    def test_multi_index_without_beneficial_second_index(
        self, tiny_schema
    ):
        """The greedy loop stops after one index on both backends."""
        model = CostModel(tiny_schema)
        kernel = VectorizedCostSource(tiny_schema)
        query = Query(0, "ORDERS", frozenset({0, 2}), 1.0)
        # A selective leading index plus a useless STATUS index: the
        # residual scan of STATUS over the few surviving rows beats a
        # second index descent.
        indexes = (
            Index.of(tiny_schema, (0,)),
            Index.of(tiny_schema, (2,)),
        )
        scalar = model.multi_index_cost(query, indexes)
        assert kernel.multi_index_cost(query, indexes) == scalar
        assert scalar < model.sequential_cost(query)


class TestFacadeBatch:
    def test_supports_batch_detection(self, tiny_workload):
        schema = tiny_workload.schema
        assert WhatIfOptimizer(
            VectorizedCostSource(schema)
        ).supports_batch
        assert not WhatIfOptimizer(
            AnalyticalCostSource(CostModel(schema))
        ).supports_batch

    def test_cost_table_matches_per_pair_path(self, small_workload):
        """Satellite regression: batch cost_table keeps values AND
        WhatIfStatistics identical to the per-pair path."""
        candidates = syntactically_relevant_candidates(small_workload, 3)
        batched = WhatIfOptimizer(
            VectorizedCostSource(small_workload.schema)
        )
        per_pair = WhatIfOptimizer(
            AnalyticalCostSource(CostModel(small_workload.schema))
        )
        batched_table = batched.cost_table(small_workload, candidates)
        per_pair_table = per_pair.cost_table(small_workload, candidates)
        assert batched_table.keys() == per_pair_table.keys()
        for key, reference in per_pair_table.items():
            assert batched_table[key] == pytest.approx(
                reference, rel=REL
            )
        assert batched.statistics.calls == per_pair.statistics.calls
        assert (
            batched.statistics.cache_hits
            == per_pair.statistics.cache_hits
        )

    def test_index_column_matches_index_cost(self, tiny_workload):
        """An index's cost column as one pair batch — applicable
        queries paired with the index, the rest with ``None``, as
        :meth:`index_cost` would — equals per-pair ``index_cost``."""
        facade = WhatIfOptimizer(
            VectorizedCostSource(tiny_workload.schema)
        )
        reference = WhatIfOptimizer(
            VectorizedCostSource(tiny_workload.schema)
        )
        index = Index.of(tiny_workload.schema, (1, 3))
        column = facade.pair_costs(
            [
                (query, index if index.is_applicable_to(query) else None)
                for query in tiny_workload.queries
            ]
        )
        for query, cost in zip(tiny_workload.queries, column):
            assert reference.index_cost(query, index) == cost
        assert facade.statistics.calls == reference.statistics.calls
        assert (
            facade.statistics.cache_hits
            == reference.statistics.cache_hits
        )

    def test_duplicate_content_counts_one_call(self, tiny_schema):
        facade = WhatIfOptimizer(VectorizedCostSource(tiny_schema))
        twins = (
            Query(0, "ORDERS", frozenset({0}), 1.0),
            Query(1, "ORDERS", frozenset({0}), 7.0),
        )
        costs = facade.sequential_costs(twins)
        assert costs[0] == costs[1]
        assert facade.statistics.calls == 1
        assert facade.statistics.cache_hits == 1
        # A second batch is pure cache hits.
        facade.sequential_costs(twins)
        assert facade.statistics.calls == 1
        assert facade.statistics.cache_hits == 3

    def test_batch_methods_work_on_scalar_backends(self, tiny_workload):
        """The facade batch API degrades to per-pair lookups, with the
        per-pair path's values and accounting."""
        schema = tiny_workload.schema
        facade = WhatIfOptimizer(AnalyticalCostSource(CostModel(schema)))
        reference = WhatIfOptimizer(
            AnalyticalCostSource(CostModel(schema))
        )
        queries = tiny_workload.queries
        index = Index.of(schema, (0,))
        applicable = [
            query for query in queries if index.is_applicable_to(query)
        ]
        sequential = facade.sequential_costs(queries)
        column = _column(facade, applicable, index)
        for query, cost in zip(queries, sequential):
            assert reference.sequential_cost(query) == cost
        for query, cost in zip(applicable, column):
            assert reference.index_cost(query, index) == cost
        assert facade.statistics == reference.statistics

    def test_price_columns_uses_batch_and_warms_cache(
        self, small_workload
    ):
        facade = WhatIfOptimizer(
            VectorizedCostSource(small_workload.schema)
        )
        candidates = syntactically_relevant_candidates(small_workload, 2)
        price_columns(facade, small_workload.queries, candidates)
        warmed = facade.statistics.copy()
        assert warmed.calls > 0
        # Re-pricing everything is now pure cache hits.
        for index in candidates:
            _column(
                facade,
                [
                    query
                    for query in small_workload.queries
                    if index.is_applicable_to(query)
                ],
                index,
            )
        assert facade.statistics.calls == warmed.calls


class TestKernelStatistics:
    def test_counters_and_mean_batch_size(self, tiny_workload):
        kernel = VectorizedCostSource(tiny_workload.schema)
        queries = tiny_workload.queries
        _column(kernel, queries, None)
        _column(kernel, queries, Index.of(tiny_workload.schema, (0,)))
        kernel.query_cost(queries[0], None)
        statistics = kernel.statistics
        assert statistics.compiled_workloads == 1
        assert statistics.compiled_queries == len(queries)
        assert statistics.compile_seconds >= 0.0
        assert statistics.batch_calls == 2
        assert statistics.batch_pairs == 2 * len(queries)
        assert statistics.mean_batch_size == len(queries)
        assert statistics.scalar_calls == 1

    def test_publish_and_record_kernel_gauges(self):
        statistics = KernelStatistics(
            compiled_workloads=2,
            compiled_queries=30,
            compile_seconds=0.25,
            batch_calls=4,
            batch_pairs=40,
            scalar_calls=3,
        )
        telemetry = Telemetry()
        telemetry.metrics.publish("kernel", statistics)
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["kernel.compiled_workloads"] == 2
        assert snapshot["kernel.compiled_queries"] == 30
        assert snapshot["kernel.batch_calls"] == 4
        assert snapshot["kernel.batch_pairs"] == 40
        assert snapshot["kernel.mean_batch_size"] == 10
        assert snapshot["kernel.scalar_calls"] == 3

    def test_empty_statistics_mean_is_zero(self):
        assert KernelStatistics().mean_batch_size == 0.0


class TestSelectionEquivalence:
    def test_extend_identical_steps_under_both_kernels(
        self, small_workload
    ):
        from repro.core.extend import ExtendAlgorithm
        from repro.indexes.memory import relative_budget

        budget = relative_budget(small_workload.schema, 0.3)
        results = {}
        for kernel, source in (
            (
                "scalar",
                AnalyticalCostSource(CostModel(small_workload.schema)),
            ),
            ("vectorized", VectorizedCostSource(small_workload.schema)),
        ):
            results[kernel] = ExtendAlgorithm(
                WhatIfOptimizer(source)
            ).select(small_workload, budget)
        scalar, vectorized = results["scalar"], results["vectorized"]
        assert set(scalar.configuration) == set(
            vectorized.configuration
        )
        assert vectorized.total_cost == pytest.approx(
            scalar.total_cost, rel=REL
        )
        assert [
            (step.kind, step.index_after) for step in scalar.steps
        ] == [
            (step.kind, step.index_after) for step in vectorized.steps
        ]


class TestPairBatch:
    """The pair-flattened entry point used by whole-table sweeps."""

    def _mixed_pairs(self, workload, max_width=3):
        """Sequential plus every applicable (query, index) pair."""
        candidates = syntactically_relevant_candidates(
            workload, max_width
        )
        pairs = [(query, None) for query in workload.queries]
        for index in candidates:
            pairs += [
                (query, index)
                for query in workload.queries
                if index.is_applicable_to(query)
            ]
        return tuple(pairs)

    def test_kernel_pair_costs_bitwise_matches_query_cost(
        self, small_workload
    ):
        """One array sweep over mixed pairs (None-index included) is
        bit-identical to pricing each pair alone."""
        kernel = VectorizedCostSource(small_workload.schema)
        reference = VectorizedCostSource(small_workload.schema)
        pairs = self._mixed_pairs(small_workload)
        costs = kernel.pair_costs(pairs)
        for (query, index), cost in zip(pairs, costs):
            assert cost == reference.query_cost(query, index)
        assert kernel.statistics.batch_pairs == len(pairs)

    def test_facade_pair_costs_matches_per_pair_accounting(
        self, small_workload
    ):
        """Values AND WhatIfStatistics match the per-pair facade path,
        duplicates counted as cache hits either way."""
        batched = WhatIfOptimizer(
            VectorizedCostSource(small_workload.schema)
        )
        per_pair = WhatIfOptimizer(
            VectorizedCostSource(small_workload.schema)
        )
        pairs = self._mixed_pairs(small_workload)
        # Repeat the pair list so the batch path must classify the
        # second half as pure cache hits.
        pairs = pairs + pairs
        costs = batched.pair_costs(pairs)
        for (query, index), cost in zip(pairs, costs):
            reference = (
                per_pair.sequential_cost(query)
                if index is None
                else per_pair.index_cost(query, index)
            )
            assert cost == reference
        assert batched.statistics.calls == per_pair.statistics.calls
        assert (
            batched.statistics.cache_hits
            == per_pair.statistics.cache_hits
        )

    def test_facade_pair_costs_on_scalar_backend(self, tiny_workload):
        """Without a pair-capable backend the facade degrades to the
        cached per-pair lookup with identical results."""
        facade = WhatIfOptimizer(
            AnalyticalCostSource(CostModel(tiny_workload.schema))
        )
        pairs = self._mixed_pairs(tiny_workload, max_width=2)
        costs = facade.pair_costs(pairs)
        for (query, index), cost in zip(pairs, costs):
            reference = (
                facade.sequential_cost(query)
                if index is None
                else facade.index_cost(query, index)
            )
            assert cost == reference

    def test_resilient_wrapper_preserves_pair_batch(
        self, small_workload
    ):
        """The resilience decorator advertises pair_costs exactly when
        its primary does, and passes values through bit-identically."""
        from repro.resilience import ResilientCostSource

        schema = small_workload.schema
        wrapped = ResilientCostSource(VectorizedCostSource(schema))
        assert getattr(wrapped, "pair_costs", None) is not None
        bare = VectorizedCostSource(schema)
        pairs = self._mixed_pairs(small_workload)
        assert np.array_equal(
            wrapped.pair_costs(pairs), bare.pair_costs(pairs)
        )
        scalar_wrapped = ResilientCostSource(
            AnalyticalCostSource(CostModel(schema))
        )
        assert getattr(scalar_wrapped, "pair_costs", None) is None

    def test_fault_injector_charges_one_outcome_per_pair_batch(
        self, small_workload
    ):
        """A whole pair batch consumes exactly one fault-plan outcome:
        a scripted failure kills the first sweep, the retry answers."""
        from repro.exceptions import TransientCostSourceError
        from repro.resilience import FaultInjectingCostSource

        schema = small_workload.schema
        injected = FaultInjectingCostSource(
            VectorizedCostSource(schema), script=["fail"]
        )
        pairs = self._mixed_pairs(small_workload)
        with pytest.raises(TransientCostSourceError):
            injected.pair_costs(pairs)
        healthy = VectorizedCostSource(schema)
        assert np.array_equal(
            injected.pair_costs(pairs), healthy.pair_costs(pairs)
        )
        assert injected.statistics.calls == 2
