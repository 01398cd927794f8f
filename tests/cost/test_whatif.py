"""Tests for the caching what-if optimizer facade."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import price_columns
from repro.core.extend import ExtendAlgorithm
from repro.core.localsearch import swap_local_search
from repro.cost import whatif
from repro.cost.kernel import VectorizedCostSource
from repro.cost.model import CostModel
from repro.cost.whatif import (
    AnalyticalCostSource,
    Applicability,
    WhatIfOptimizer,
)
from repro.indexes.candidates import syntactically_relevant_candidates
from repro.indexes.configuration import IndexConfiguration
from repro.indexes.index import Index
from repro.indexes.memory import relative_budget
from repro.workload.query import Query, QueryKind, Workload
from repro.workload.schema import Schema


class _CountingSource:
    """Cost source that counts raw invocations."""

    def __init__(self, inner):
        self._inner = inner
        self.invocations = 0

    def query_cost(self, query, index):
        self.invocations += 1
        return self._inner.query_cost(query, index)


@pytest.fixture
def counting(tiny_workload):
    from repro.cost.model import CostModel
    from repro.cost.whatif import AnalyticalCostSource

    source = _CountingSource(
        AnalyticalCostSource(CostModel(tiny_workload.schema))
    )
    return source, WhatIfOptimizer(source)


class TestCaching:
    def test_repeated_calls_hit_cache(self, counting, tiny_workload):
        source, optimizer = counting
        query = tiny_workload.queries[0]
        first = optimizer.sequential_cost(query)
        second = optimizer.sequential_cost(query)
        assert first == second
        assert source.invocations == 1
        assert optimizer.statistics.cache_hits == 1
        assert optimizer.calls == 1

    def test_index_cost_cached_per_pair(self, counting, tiny_workload, tiny_schema):
        source, optimizer = counting
        query = tiny_workload.queries[1]  # attrs {1, 3}
        index = Index.of(tiny_schema, (1,))
        optimizer.index_cost(query, index)
        optimizer.index_cost(query, index)
        assert source.invocations == 1

    def test_inapplicable_index_needs_no_backend_call(
        self, counting, tiny_workload, tiny_schema
    ):
        source, optimizer = counting
        query = tiny_workload.queries[3]  # attrs {2}
        index = Index.of(tiny_schema, (0,))
        sequential = optimizer.sequential_cost(query)
        assert optimizer.index_cost(query, index) == sequential
        assert source.invocations == 1  # only the sequential cost

    def test_clear_cache_forces_recompute(self, counting, tiny_workload):
        source, optimizer = counting
        query = tiny_workload.queries[0]
        optimizer.sequential_cost(query)
        optimizer.clear_cache()
        optimizer.sequential_cost(query)
        assert source.invocations == 2

    def test_clear_cache_resets_statistics_atomically(
        self, counting, tiny_workload
    ):
        """Regression: clearing the cache used to keep the old counters,
        so hit_rate reported hits against entries that no longer existed.
        """
        source, optimizer = counting
        query = tiny_workload.queries[0]
        optimizer.sequential_cost(query)
        optimizer.sequential_cost(query)  # cache hit
        assert optimizer.statistics.cache_hits == 1
        optimizer.clear_cache()
        assert optimizer.calls == 0
        assert optimizer.statistics.cache_hits == 0
        assert optimizer.statistics.total_requests == 0
        assert optimizer.statistics.hit_rate == 0.0
        # Counters restart from the cleared cache, not the old epoch.
        optimizer.sequential_cost(query)
        assert optimizer.calls == 1
        assert optimizer.statistics.cache_hits == 0
        assert source.invocations == 2

    def test_scoped_clear_removes_only_given_queries(
        self, counting, tiny_workload, tiny_schema
    ):
        source, optimizer = counting
        kept, cleared = tiny_workload.queries[0], tiny_workload.queries[1]
        index = Index.of(tiny_schema, (1,))
        optimizer.sequential_cost(kept)
        optimizer.sequential_cost(cleared)
        optimizer.index_cost(cleared, index)
        removed = optimizer.clear_cache([cleared])
        assert removed == 2  # sequential + index entry of `cleared`
        before = source.invocations
        optimizer.sequential_cost(kept)  # still cached
        assert source.invocations == before
        optimizer.sequential_cost(cleared)  # repriced
        assert source.invocations == before + 1

    def test_scoped_clear_keeps_statistics(
        self, counting, tiny_workload
    ):
        """Scoped invalidation serves multi-tenant callers: evicting one
        workload must not zero the counters other tenants are watching.
        """
        _, optimizer = counting
        query = tiny_workload.queries[0]
        optimizer.sequential_cost(query)
        optimizer.sequential_cost(query)  # cache hit
        assert optimizer.statistics.cache_hits == 1
        optimizer.clear_cache([query])
        assert optimizer.calls == 1
        assert optimizer.statistics.cache_hits == 1

    def test_scoped_clear_of_unknown_queries_is_a_noop(
        self, counting, tiny_workload
    ):
        _, optimizer = counting
        optimizer.sequential_cost(tiny_workload.queries[0])
        assert optimizer.clear_cache([tiny_workload.queries[1]]) == 0
        assert optimizer.clear_cache([]) == 0

    def test_reset_statistics(self, counting, tiny_workload):
        _, optimizer = counting
        optimizer.sequential_cost(tiny_workload.queries[0])
        optimizer.reset_statistics()
        assert optimizer.calls == 0
        assert optimizer.statistics.cache_hits == 0
        assert optimizer.statistics.total_requests == 0


class TestConfigurationCosts:
    def test_configuration_cost_is_min(
        self, tiny_optimizer, tiny_workload, tiny_schema
    ):
        query = tiny_workload.queries[1]  # attrs {1, 3}
        good = Index.of(tiny_schema, (1, 3))
        configuration = IndexConfiguration([good])
        assert tiny_optimizer.configuration_cost(
            query, configuration
        ) == pytest.approx(tiny_optimizer.index_cost(query, good))

    def test_empty_configuration_is_sequential(
        self, tiny_optimizer, tiny_workload
    ):
        query = tiny_workload.queries[0]
        assert tiny_optimizer.configuration_cost(
            query, IndexConfiguration()
        ) == tiny_optimizer.sequential_cost(query)

    def test_workload_cost_weights_frequencies(
        self, tiny_optimizer, tiny_workload
    ):
        expected = sum(
            query.frequency * tiny_optimizer.sequential_cost(query)
            for query in tiny_workload
        )
        assert tiny_optimizer.workload_cost(
            tiny_workload, ()
        ) == pytest.approx(expected)

    def test_workload_cost_monotone_in_indexes(
        self, tiny_optimizer, tiny_workload, tiny_schema
    ):
        empty = tiny_optimizer.workload_cost(tiny_workload, ())
        indexed = tiny_optimizer.workload_cost(
            tiny_workload, (Index.of(tiny_schema, (0,)),)
        )
        assert indexed <= empty


class TestCostTable:
    def test_covers_applicable_pairs_only(
        self, tiny_optimizer, tiny_workload, tiny_schema
    ):
        candidates = [
            Index.of(tiny_schema, (1,)),
            Index.of(tiny_schema, (4,)),
        ]
        table = tiny_optimizer.cost_table(tiny_workload, candidates)
        # One sequential entry per query.
        sequential_entries = [
            key for key in table if key[1] is None
        ]
        assert len(sequential_entries) == tiny_workload.query_count
        # Index (1,) applies to queries 1 and 2; (4,) to query 4.
        index_entries = [key for key in table if key[1] is not None]
        assert len(index_entries) == 3

    def test_call_count_matches_entries(self, counting, tiny_workload, tiny_schema):
        source, optimizer = counting
        candidates = [Index.of(tiny_schema, (1,))]
        table = optimizer.cost_table(tiny_workload, candidates)
        assert source.invocations == len(table)


class TestStatisticsPublish:
    def test_publish_bridges_gauges(self, counting, tiny_workload):
        from repro.telemetry import MetricsRegistry

        _, optimizer = counting
        query = tiny_workload.queries[0]
        optimizer.sequential_cost(query)
        optimizer.sequential_cost(query)  # cache hit

        registry = MetricsRegistry()
        registry.publish("whatif", optimizer.statistics)
        snapshot = registry.snapshot()
        assert snapshot["whatif.calls"] == 1  # one backend call
        assert snapshot["whatif.cache_hits"] == 1
        assert snapshot["whatif.hit_rate"] == pytest.approx(0.5)

    def test_publish_custom_prefix(self, counting, tiny_workload):
        from repro.telemetry import MetricsRegistry

        _, optimizer = counting
        optimizer.sequential_cost(tiny_workload.queries[0])
        registry = MetricsRegistry()
        registry.publish("run1", optimizer.statistics)
        snapshot = registry.snapshot()
        assert snapshot["run1.calls"] == 1
        assert "whatif.calls" not in snapshot

    def test_publish_empty_statistics(self):
        from repro.cost.whatif import WhatIfStatistics
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        registry.publish("whatif", WhatIfStatistics())
        snapshot = registry.snapshot()
        assert snapshot["whatif.calls"] == 0
        assert snapshot["whatif.hit_rate"] == 0.0


class RecordingKernel(VectorizedCostSource):
    """The compiled kernel, recording the size of every pair batch."""

    def __init__(self, schema, on_pair_batch=None) -> None:
        super().__init__(schema)
        self.pair_batches: list[int] = []
        self.on_pair_batch = on_pair_batch

    def pair_costs(self, pairs):
        pairs = tuple(pairs)
        self.pair_batches.append(len(pairs))
        if self.on_pair_batch is not None:
            self.on_pair_batch()
        return super().pair_costs(pairs)


def _swap_pricing(workload, optimizer, candidates):
    # Extend sends each move's whole column as one pair batch, so it
    # runs on its own facade: only swap's pricing reaches the recorder.
    budget = relative_budget(workload.schema, 0.1)
    start = ExtendAlgorithm(
        WhatIfOptimizer(VectorizedCostSource(workload.schema))
    ).select(workload, budget)
    swap_local_search(
        workload, optimizer, start, budget, candidates, max_pool=10
    )


class TestApplicability:
    def test_positions_match_is_applicable_to(self, small_workload):
        queries = small_workload.queries
        applicability = Applicability(queries)
        for index in syntactically_relevant_candidates(small_workload):
            assert applicability.positions(index).tolist() == [
                position
                for position, query in enumerate(queries)
                if index.is_applicable_to(query)
            ]

    @pytest.mark.parametrize(
        "pricer",
        [
            _swap_pricing,
            lambda workload, optimizer, candidates: price_columns(
                optimizer, workload.queries, candidates
            ),
            lambda workload, optimizer, candidates: optimizer.cost_table(
                workload, candidates
            ),
        ],
        ids=["swap", "price_columns", "cost_table"],
    )
    def test_pool_pricers_never_exceed_the_chunk(
        self, small_workload, monkeypatch, pricer
    ):
        monkeypatch.setattr(whatif, "PAIR_CHUNK", 8)
        source = RecordingKernel(small_workload.schema)
        optimizer = WhatIfOptimizer(source)
        # The sequential column is one pair batch of every query: warm
        # it, so every batch the pricer sends is a pool chunk.
        optimizer.sequential_costs(small_workload.queries)
        source.pair_batches.clear()
        pricer(
            small_workload,
            optimizer,
            syntactically_relevant_candidates(small_workload),
        )
        assert len(source.pair_batches) > 1
        assert max(source.pair_batches) <= 8

    def test_chunk_size_changes_no_cost_or_count(
        self, small_workload, monkeypatch
    ):
        candidates = syntactically_relevant_candidates(small_workload)
        whole = WhatIfOptimizer(VectorizedCostSource(small_workload.schema))
        expected = whole.cost_table(small_workload, candidates)
        monkeypatch.setattr(whatif, "PAIR_CHUNK", 7)
        chunked = WhatIfOptimizer(
            VectorizedCostSource(small_workload.schema)
        )
        assert chunked.cost_table(small_workload, candidates) == expected
        assert chunked.statistics == whole.statistics


_HTAP_SCHEMA = Schema.build(
    {
        "ORDERS": (
            10_000,
            [("ID", 10_000, 4), ("CUSTOMER", 500, 4), ("STATUS", 5, 1)],
        ),
        "ITEMS": (50_000, [("ID", 50_000, 4), ("SKU", 2_000, 8)]),
    }
)


@st.composite
def _workloads_and_configurations(draw):
    """Two-table workloads mixing SELECT, UPDATE and INSERT templates,
    with a configuration of indexes on either table."""
    tables = {
        table.name: [attribute.id for attribute in table.attributes]
        for table in _HTAP_SCHEMA.tables
    }
    queries = []
    for query_id in range(draw(st.integers(min_value=1, max_value=10))):
        table = draw(st.sampled_from(sorted(tables)))
        attributes = draw(
            st.sets(st.sampled_from(tables[table]), min_size=1)
        )
        queries.append(
            Query(
                query_id,
                table,
                frozenset(attributes),
                draw(st.floats(min_value=0.5, max_value=1e4)),
                kind=draw(st.sampled_from(list(QueryKind))),
            )
        )
    indexes = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        table = draw(st.sampled_from(sorted(tables)))
        order = draw(st.permutations(tables[table]))
        width = draw(st.integers(min_value=1, max_value=len(order)))
        indexes.append(Index.of(_HTAP_SCHEMA, tuple(order[:width])))
    return Workload(_HTAP_SCHEMA, queries), indexes


class TestWorkloadCost:
    @given(
        _workloads_and_configurations(),
        st.sampled_from([None, 2, 4]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_per_query_sum(self, case, max_entries):
        """Bit-identical to summing configuration_cost, with identical
        statistics, over a configuration and each leave-one-out subset
        (the report's calls) -- also under an LRU bound, where the
        lookup order decides evictions."""
        workload, indexes = case

        def facade():
            return WhatIfOptimizer(
                AnalyticalCostSource(CostModel(_HTAP_SCHEMA)),
                max_entries=max_entries,
            )

        grouped, reference = facade(), facade()
        for drop in range(-1, len(indexes)):
            subset = [
                index for rank, index in enumerate(indexes) if rank != drop
            ]
            total = grouped.workload_cost(workload, subset)
            expected = sum(
                query.frequency
                * reference.configuration_cost(query, subset)
                for query in workload
            )
            assert total == expected
            assert grouped.statistics == reference.statistics
