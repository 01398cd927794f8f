"""Tests for the Appendix B(ii) index memory model."""

from __future__ import annotations

import gc
import math

import pytest

from repro.exceptions import BudgetError
from repro.indexes import memory
from repro.indexes.index import Index
from repro.indexes.memory import (
    configuration_memory,
    index_memory,
    relative_budget,
    single_attribute_total_memory,
)
from repro.workload.schema import Schema


class TestIndexMemory:
    def test_matches_formula(self, tiny_schema):
        # ORDERS has n = 10_000 rows; attribute 1 has a = 4 bytes.
        index = Index.of(tiny_schema, (1,))
        n = 10_000
        expected = math.ceil(math.ceil(math.log2(n)) * n / 8) + 4 * n
        assert index_memory(tiny_schema, index) == expected

    def test_multi_attribute_adds_value_columns(self, tiny_schema):
        single = index_memory(tiny_schema, Index.of(tiny_schema, (1,)))
        double = index_memory(tiny_schema, Index.of(tiny_schema, (1, 3)))
        # Attribute 3 (REGION) has a = 2 bytes over 10_000 rows.
        assert double == single + 2 * 10_000

    def test_memory_is_order_independent(self, tiny_schema):
        forward = index_memory(tiny_schema, Index.of(tiny_schema, (1, 3)))
        backward = index_memory(tiny_schema, Index.of(tiny_schema, (3, 1)))
        assert forward == backward

    def test_configuration_memory_sums(self, tiny_schema):
        indexes = [
            Index.of(tiny_schema, (0,)),
            Index.of(tiny_schema, (4,)),
        ]
        assert configuration_memory(tiny_schema, indexes) == sum(
            index_memory(tiny_schema, index) for index in indexes
        )

    def test_single_attribute_total(self, tiny_schema):
        one_row = Schema.build(
            {"ONE": (1, [("A", 1, 4), ("B", 1, 2)]), "T": (8, [("C", 2, 1)])}
        )
        for schema in (tiny_schema, one_row):
            total = single_attribute_total_memory(schema)
            per_attribute = [
                index_memory(schema, Index(a.table_name, (a.id,)))
                for a in schema.iter_attributes()
            ]
            assert total == sum(per_attribute)

    def test_single_attribute_total_is_summed_once_per_schema(
        self, tiny_schema, monkeypatch
    ):
        total = single_attribute_total_memory(tiny_schema)

        def summed_again(*_):
            raise AssertionError("total summed twice for one schema")

        monkeypatch.setattr(memory, "index_memory", summed_again)
        assert single_attribute_total_memory(tiny_schema) == total
        assert relative_budget(tiny_schema, 0.5) == 0.5 * total

    def test_cached_total_leaves_with_its_schema(self, tiny_schema):
        schema = Schema(tiny_schema.tables)
        single_attribute_total_memory(schema)
        key = id(schema)
        assert key in memory._SINGLE_TOTALS
        del schema
        gc.collect()
        assert key not in memory._SINGLE_TOTALS


class TestRelativeBudget:
    def test_eq_10(self, tiny_schema):
        total = single_attribute_total_memory(tiny_schema)
        assert relative_budget(tiny_schema, 0.0) == 0.0
        assert relative_budget(tiny_schema, 0.5) == pytest.approx(
            total / 2
        )
        assert relative_budget(tiny_schema, 1.0) == pytest.approx(total)

    def test_rejects_negative_share(self, tiny_schema):
        with pytest.raises(BudgetError, match=">= 0"):
            relative_budget(tiny_schema, -0.1)

    def test_shares_above_one_are_allowed(self, tiny_schema):
        """w > 1 is meaningful: multi-attribute indexes can exceed the
        all-singles footprint (Fig. 5 sweeps w up to 1)."""
        assert relative_budget(tiny_schema, 2.0) == pytest.approx(
            2 * single_attribute_total_memory(tiny_schema)
        )
