"""Tests for the registered-workload lifecycle and scoped invalidation."""

from __future__ import annotations

import pytest

from repro.advisor import CostStack
from repro.exceptions import ServiceError, UnknownWorkloadError
from repro.service import WorkloadRegistry
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.query import Workload


@pytest.fixture
def registry(tiny_workload):
    stack = CostStack(tiny_workload.schema)
    return WorkloadRegistry(tiny_workload.schema, stack), stack


class TestLifecycle:
    def test_register_get_names(self, registry, tiny_workload):
        table, _ = registry
        registration = table.register("w", tiny_workload)
        assert registration.version == 1
        assert table.get("w") is registration
        assert table.names() == ("w",)
        assert len(table) == 1

    def test_duplicate_register_rejected(self, registry, tiny_workload):
        table, _ = registry
        table.register("w", tiny_workload)
        with pytest.raises(ServiceError):
            table.register("w", tiny_workload)

    def test_unknown_names_raise(self, registry, tiny_workload):
        table, _ = registry
        with pytest.raises(UnknownWorkloadError):
            table.get("nope")
        with pytest.raises(UnknownWorkloadError):
            table.update("nope", tiny_workload)
        with pytest.raises(UnknownWorkloadError):
            table.evict("nope")

    def test_foreign_schema_rejected(self, registry):
        table, _ = registry
        other = generate_workload(GeneratorConfig(seed=3))
        with pytest.raises(ServiceError):
            table.register("other", other)

    def test_evict_removes_registration(self, registry, tiny_workload):
        table, _ = registry
        table.register("w", tiny_workload)
        table.evict("w")
        assert table.names() == ()


class TestScopedInvalidation:
    def test_update_clears_only_dropped_queries(
        self, registry, tiny_workload
    ):
        table, stack = registry
        optimizer = stack.optimizer
        table.register("w", tiny_workload)
        for query in tiny_workload:
            optimizer.sequential_cost(query)
        kept = list(tiny_workload)[:3]
        _, invalidated = table.update(
            "w", Workload(tiny_workload.schema, kept)
        )
        # 6 sequential entries existed; only the 3 dropped queries go.
        assert invalidated == 3
        before = optimizer.calls
        for query in kept:
            optimizer.sequential_cost(query)  # still cached
        assert optimizer.calls == before

    def test_update_and_evict_drop_stale_answers(
        self, registry, tiny_workload
    ):
        # The resilient layer keeps every successful backend answer as
        # a stale fallback; those of dropped queries must go with the
        # facade's entries, or they outlive every registration.
        table, stack = registry
        queries = list(tiny_workload)
        table.register("a", Workload(tiny_workload.schema, queries[:4]))
        table.register("b", Workload(tiny_workload.schema, queries[4:]))
        for query in queries:
            stack.optimizer.sequential_cost(query)
        assert stack.resilient.stale_cache_size == len(queries)
        _, invalidated = table.update(
            "a", Workload(tiny_workload.schema, queries[:3])
        )
        assert invalidated == 1
        assert stack.resilient.stale_cache_size == len(queries) - 1
        assert table.evict("b") == len(queries) - 4
        assert stack.resilient.stale_cache_size == 3
        assert table.evict("a") == 3
        assert stack.resilient.stale_cache_size == 0

    def test_evict_clears_the_whole_workload(
        self, registry, tiny_workload
    ):
        table, stack = registry
        optimizer = stack.optimizer
        table.register("w", tiny_workload)
        for query in tiny_workload:
            optimizer.sequential_cost(query)
        assert table.evict("w") == len(tiny_workload)

    def test_update_starts_an_unpriced_version(
        self, registry, tiny_workload
    ):
        table, _ = registry
        registration = table.register("w", tiny_workload)
        assert not registration.is_priced(1)
        registration.mark_priced(1)
        assert registration.is_priced(1)
        updated, _ = table.update("w", tiny_workload)
        assert updated is registration
        assert updated.version == 2
        assert not registration.is_priced(2)
        # A request admitted against version 1 that finishes late must
        # not move the marker back.
        registration.mark_priced(2)
        registration.mark_priced(1)
        assert registration.is_priced(2)

    def test_update_keeps_other_workloads_cached(
        self, registry, tiny_workload
    ):
        table, stack = registry
        optimizer = stack.optimizer
        half_a = Workload(
            tiny_workload.schema, list(tiny_workload)[:3]
        )
        half_b = Workload(
            tiny_workload.schema, list(tiny_workload)[3:]
        )
        table.register("a", half_a)
        table.register("b", half_b)
        for query in tiny_workload:
            optimizer.sequential_cost(query)
        hits_before = optimizer.statistics.cache_hits
        table.update(
            "a", Workload(tiny_workload.schema, list(half_a)[:1])
        )
        before = optimizer.calls
        for query in half_b:
            optimizer.sequential_cost(query)
        assert optimizer.calls == before
        assert optimizer.statistics.cache_hits > hits_before
