"""Tests for the what-if facade's optional LRU cost-cache bound.

A long-lived advisor service prices every workload it ever sees
through one shared facade per kernel; unbounded, that cache grows
monotonically for the life of the process.  ``max_entries`` turns it
into an LRU with eviction accounting — these tests pin the bound, the
recency order, the counters, and that the unbounded default is
untouched.
"""

from __future__ import annotations

import pytest

from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.indexes.index import Index
from repro.telemetry.metrics import MetricsRegistry


def _optimizer(workload, max_entries=None):
    return WhatIfOptimizer(
        AnalyticalCostSource(CostModel(workload.schema)),
        max_entries=max_entries,
    )


def _single_indexes(workload):
    return [
        Index.of(workload.schema, [min(query.attributes)])
        for query in workload
    ]


class TestConfiguration:
    def test_default_is_unbounded(self, tiny_workload):
        optimizer = _optimizer(tiny_workload)
        assert optimizer.max_entries is None
        for query in tiny_workload:
            optimizer.sequential_cost(query)
        assert optimizer.statistics.evictions == 0

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_bound_rejected(self, tiny_workload, bad):
        with pytest.raises(ValueError):
            _optimizer(tiny_workload, max_entries=bad)


class TestBound:
    def test_cache_never_exceeds_the_bound(self, tiny_workload):
        queries = list(tiny_workload)
        optimizer = _optimizer(tiny_workload, max_entries=3)
        for query in queries:
            optimizer.sequential_cost(query)
        exported = optimizer.export_cache(queries)
        assert len(exported["cost"]) <= 3
        assert optimizer.statistics.evictions == len(queries) - 3

    def test_evicted_entries_reprice_through_the_backend(
        self, tiny_workload
    ):
        queries = list(tiny_workload)
        optimizer = _optimizer(tiny_workload, max_entries=2)
        for query in queries:
            optimizer.sequential_cost(query)
        calls_before = optimizer.calls
        optimizer.sequential_cost(queries[0])  # long since evicted
        assert optimizer.calls == calls_before + 1

    def test_values_identical_to_unbounded(self, tiny_workload):
        queries = list(tiny_workload)
        indexes = _single_indexes(tiny_workload)
        unbounded = _optimizer(tiny_workload)
        bounded = _optimizer(tiny_workload, max_entries=2)
        for query, index in zip(queries, indexes):
            assert bounded.sequential_cost(
                query
            ) == unbounded.sequential_cost(query)
            assert bounded.index_cost(
                query, index
            ) == unbounded.index_cost(query, index)
        # A second sweep re-prices through the backend; an LRU can
        # cost extra calls, never different numbers.
        for query, index in zip(queries, indexes):
            assert bounded.sequential_cost(
                query
            ) == unbounded.sequential_cost(query)
            assert bounded.index_cost(
                query, index
            ) == unbounded.index_cost(query, index)


class TestRecency:
    def test_touched_entries_survive_eviction(self, tiny_workload):
        queries = list(tiny_workload)[:4]
        optimizer = _optimizer(tiny_workload, max_entries=3)
        for query in queries[:3]:
            optimizer.sequential_cost(query)
        # Touch the oldest entry, then overflow: the *second* oldest
        # must be the victim.
        optimizer.sequential_cost(queries[0])
        hits = optimizer.statistics.cache_hits
        assert hits >= 1
        optimizer.sequential_cost(queries[3])
        assert optimizer.statistics.evictions == 1
        calls_before = optimizer.calls
        optimizer.sequential_cost(queries[0])  # still cached
        assert optimizer.calls == calls_before
        optimizer.sequential_cost(queries[1])  # the evicted one
        assert optimizer.calls == calls_before + 1

    def test_batch_hits_refresh_recency(self, tiny_workload):
        queries = list(tiny_workload)[:4]
        optimizer = _optimizer(tiny_workload, max_entries=3)
        for query in queries[:3]:
            optimizer.sequential_cost(query)
        # A warm batch read touches all three; filling one more slot
        # then evicts in the batch-refreshed order.
        optimizer.sequential_costs(queries[:3])
        optimizer.sequential_cost(queries[3])
        calls_before = optimizer.calls
        optimizer.sequential_cost(queries[1])
        optimizer.sequential_cost(queries[2])
        assert optimizer.calls == calls_before  # both survived


class TestAccounting:
    def test_evictions_published_as_gauge(self, tiny_workload):
        queries = list(tiny_workload)
        optimizer = _optimizer(tiny_workload, max_entries=1)
        for query in queries:
            optimizer.sequential_cost(query)
        registry = MetricsRegistry()
        registry.publish("whatif", optimizer.statistics)
        assert (
            registry.gauge("whatif.evictions").value
            == len(queries) - 1
        )

    def test_clear_cache_resets_eviction_counter(self, tiny_workload):
        queries = list(tiny_workload)
        optimizer = _optimizer(tiny_workload, max_entries=1)
        for query in queries:
            optimizer.sequential_cost(query)
        assert optimizer.statistics.evictions > 0
        optimizer.clear_cache()
        assert optimizer.statistics.evictions == 0

    def test_scoped_clear_keeps_the_bound_working(self, tiny_workload):
        queries = list(tiny_workload)
        optimizer = _optimizer(tiny_workload, max_entries=3)
        for query in queries[:3]:
            optimizer.sequential_cost(query)
        optimizer.clear_cache(queries[:1])
        # The container survives a scoped rebuild as an LRU: refill
        # past the bound and eviction still fires.
        for query in queries:
            optimizer.sequential_cost(query)
        exported = optimizer.export_cache(queries)
        assert len(exported["cost"]) <= 3
        assert optimizer.statistics.evictions > 0

    def test_import_cache_respects_the_bound(self, tiny_workload):
        queries = list(tiny_workload)
        donor = _optimizer(tiny_workload)
        for query in queries:
            donor.sequential_cost(query)
        snapshot = donor.export_cache(queries)
        bounded = _optimizer(tiny_workload, max_entries=2)
        bounded.import_cache(queries, snapshot)
        exported = bounded.export_cache(queries)
        assert len(exported["cost"]) <= 2
        assert bounded.statistics.evictions == len(queries) - 2
