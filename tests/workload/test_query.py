"""Tests for queries and workloads."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.workload.query import Query, Workload


class TestQuery:
    def test_attribute_count_and_access(self):
        query = Query(0, "T", frozenset({1, 2, 3}), 10.0)
        assert query.attribute_count == 3
        assert query.accesses(2)
        assert not query.accesses(9)

    def test_rejects_empty_attribute_set(self):
        with pytest.raises(WorkloadError, match="no attributes"):
            Query(0, "T", frozenset(), 1.0)

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(WorkloadError, match="frequency"):
            Query(0, "T", frozenset({1}), 0.0)
        with pytest.raises(WorkloadError, match="frequency"):
            Query(0, "T", frozenset({1}), -2.0)

    @pytest.mark.parametrize(
        "frequency", [math.nan, math.inf, -math.inf]
    )
    def test_rejects_non_finite_frequency(self, frequency):
        with pytest.raises(WorkloadError, match="finite frequency"):
            Query(0, "T", frozenset({1}), frequency)

    @pytest.mark.parametrize("frequency", ["5", None, True, [1.0], 1j])
    def test_rejects_non_numeric_frequency(self, frequency):
        with pytest.raises(WorkloadError, match="frequency"):
            Query(0, "T", frozenset({1}), frequency)

    @pytest.mark.parametrize(
        "frequency", [3, 2.5, np.float64(4.0), np.int64(7)]
    )
    def test_accepts_real_frequencies(self, frequency):
        assert Query(0, "T", frozenset({1}), frequency).frequency == frequency


class TestWorkload:
    def test_validates_table_membership(self, tiny_schema):
        with pytest.raises(WorkloadError, match="outside that table"):
            Workload(
                tiny_schema,
                [Query(0, "ORDERS", frozenset({0, 4}), 1.0)],
            )

    def test_rejects_unknown_table(self, tiny_schema):
        with pytest.raises(WorkloadError, match="unknown table"):
            Workload(
                tiny_schema, [Query(0, "NOPE", frozenset({0}), 1.0)]
            )

    def test_rejects_duplicate_query_ids(self, tiny_schema):
        query = Query(0, "ORDERS", frozenset({0}), 1.0)
        with pytest.raises(WorkloadError, match="duplicate query id"):
            Workload(tiny_schema, [query, query])

    def test_rejects_empty_workload(self, tiny_schema):
        with pytest.raises(WorkloadError, match="at least one query"):
            Workload(tiny_schema, [])

    def test_from_attribute_sets_assigns_ids(self, tiny_workload):
        assert [q.query_id for q in tiny_workload] == list(range(6))

    def test_queries_of_table(self, tiny_workload):
        orders = tiny_workload.queries_of_table("ORDERS")
        assert len(orders) == 4
        assert all(q.table_name == "ORDERS" for q in orders)

    def test_queries_accessing(self, tiny_workload):
        accessing = tiny_workload.queries_accessing(1)
        assert {q.query_id for q in accessing} == {1, 2}

    def test_total_frequency(self, tiny_workload):
        assert tiny_workload.total_frequency() == pytest.approx(460.0)

    def test_query_lookup(self, tiny_workload):
        assert tiny_workload.query(3).attributes == frozenset({2})
        with pytest.raises(WorkloadError, match="unknown query"):
            tiny_workload.query(42)

    def test_filter(self, tiny_workload):
        filtered = tiny_workload.filter(
            lambda query: query.table_name == "ITEMS"
        )
        assert filtered.query_count == 2

    def test_filter_to_nothing_raises(self, tiny_workload):
        with pytest.raises(WorkloadError, match="removed every query"):
            tiny_workload.filter(lambda query: False)

    def test_scaled_multiplies_frequencies(self, tiny_workload):
        scaled = tiny_workload.scaled(2.0)
        assert scaled.total_frequency() == pytest.approx(920.0)
        # Original is untouched.
        assert tiny_workload.total_frequency() == pytest.approx(460.0)

    def test_scaled_rejects_non_positive_factor(self, tiny_workload):
        with pytest.raises(WorkloadError, match="scale factor"):
            tiny_workload.scaled(0.0)

    def test_len_and_iter(self, tiny_workload):
        assert len(tiny_workload) == 6
        assert len(list(tiny_workload)) == 6
