"""Tests for the registered-workload lifecycle and scoped invalidation."""

from __future__ import annotations

import pytest

from repro.advisor import KernelStacks
from repro.exceptions import ServiceError, UnknownWorkloadError
from repro.service import WorkloadRegistry
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.query import Workload


@pytest.fixture
def registry(tiny_workload):
    stacks = KernelStacks(tiny_workload.schema)
    return WorkloadRegistry(tiny_workload.schema, stacks), stacks


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
        table, stacks = registry
        _, optimizer = stacks.stack("vectorized")
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

    def test_update_invalidates_across_all_built_kernels(
        self, registry, tiny_workload
    ):
        table, stacks = registry
        table.register("w", tiny_workload)
        for kernel in ("scalar", "vectorized"):
            _, optimizer = stacks.stack(kernel)
            for query in tiny_workload:
                optimizer.sequential_cost(query)
        _, invalidated = table.update(
            "w",
            Workload(tiny_workload.schema, list(tiny_workload)[:5]),
        )
        assert invalidated == 2  # one dropped query × two kernels

    def test_evict_clears_the_whole_workload(
        self, registry, tiny_workload
    ):
        table, stacks = registry
        _, optimizer = stacks.stack("vectorized")
        table.register("w", tiny_workload)
        for query in tiny_workload:
            optimizer.sequential_cost(query)
        assert table.evict("w") == len(tiny_workload)

    def test_update_starts_an_unpriced_version(
        self, registry, tiny_workload
    ):
        table, _ = registry
        registration = table.register("w", tiny_workload)
        registration.mark_priced("vectorized", 1)
        assert registration.is_priced("vectorized", 1)
        assert not registration.is_priced("scalar", 1)
        updated, _ = table.update("w", tiny_workload)
        assert updated is registration
        assert updated.version == 2
        assert not registration.is_priced("vectorized", 2)
        # A request admitted against version 1 that finishes late must
        # not move the marker back.
        registration.mark_priced("vectorized", 2)
        registration.mark_priced("vectorized", 1)
        assert registration.is_priced("vectorized", 2)

    def test_update_keeps_other_workloads_cached(
        self, registry, tiny_workload
    ):
        table, stacks = registry
        _, optimizer = stacks.stack("vectorized")
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
