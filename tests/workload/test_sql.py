"""Tests for SQL template ingestion."""

from __future__ import annotations

import pytest

from repro.exceptions import WorkloadError
from repro.workload.query import QueryKind
from repro.workload.schema import Schema
from repro.workload.sql import parse_template, workload_from_sql


class TestParseSelect:
    def test_single_predicate(self, tiny_schema):
        query = parse_template(
            tiny_schema, "SELECT * FROM ORDERS WHERE ID = ?"
        )
        assert query.table_name == "ORDERS"
        assert query.attributes == frozenset({0})
        assert query.kind is QueryKind.SELECT

    def test_conjunction(self, tiny_schema):
        query = parse_template(
            tiny_schema,
            "SELECT STATUS FROM ORDERS "
            "WHERE CUSTOMER = ? AND REGION = ?",
        )
        assert query.attributes == frozenset({1, 3})

    def test_projection_columns_do_not_count(self, tiny_schema):
        query = parse_template(
            tiny_schema,
            "SELECT ID, CUSTOMER, STATUS FROM ORDERS WHERE REGION = ?",
        )
        assert query.attributes == frozenset({3})

    def test_literal_styles(self, tiny_schema):
        for literal in ("?", ":customer", "%s", "'ACME'", "42"):
            query = parse_template(
                tiny_schema,
                f"SELECT * FROM ORDERS WHERE CUSTOMER = {literal}",
            )
            assert query.attributes == frozenset({1})

    def test_case_insensitive_keywords_and_columns(self, tiny_schema):
        query = parse_template(
            tiny_schema, "select * from ORDERS where customer = ?"
        )
        assert query.attributes == frozenset({1})

    def test_trailing_semicolon(self, tiny_schema):
        query = parse_template(
            tiny_schema, "SELECT * FROM ITEMS WHERE ID = ?;"
        )
        assert query.table_name == "ITEMS"

    def test_rejects_missing_where(self, tiny_schema):
        with pytest.raises(WorkloadError, match="without WHERE"):
            parse_template(tiny_schema, "SELECT * FROM ORDERS")

    def test_rejects_or_predicates(self, tiny_schema):
        with pytest.raises(WorkloadError, match="unsupported predicate"):
            parse_template(
                tiny_schema,
                "SELECT * FROM ORDERS WHERE ID = ? OR STATUS = ?",
            )

    def test_rejects_range_predicates(self, tiny_schema):
        with pytest.raises(WorkloadError, match="unsupported predicate"):
            parse_template(
                tiny_schema, "SELECT * FROM ORDERS WHERE ID > ?"
            )

    def test_rejects_unknown_table(self, tiny_schema):
        with pytest.raises(WorkloadError, match="unknown table"):
            parse_template(
                tiny_schema, "SELECT * FROM NOPE WHERE A = ?"
            )

    def test_rejects_unknown_column(self, tiny_schema):
        with pytest.raises(WorkloadError, match="unknown column"):
            parse_template(
                tiny_schema, "SELECT * FROM ORDERS WHERE NOPE = ?"
            )

    def test_error_messages_name_the_template(self, tiny_schema):
        sql = "SELECT * FROM ORDERS WHERE ID = ? AND nope = ?"
        with pytest.raises(WorkloadError) as raised:
            workload_from_sql(tiny_schema, ["SELECT * FROM NOPE WHERE A = ?"])
        assert str(raised.value) == (
            "unknown table 'NOPE' in template: "
            "'SELECT * FROM NOPE WHERE A = ?'"
        )
        with pytest.raises(WorkloadError) as raised:
            workload_from_sql(
                tiny_schema, ["SELECT * FROM ORDERS WHERE ID = ?", sql]
            )
        assert str(raised.value) == (
            f"unknown column 'nope' on table 'ORDERS' in template: {sql!r}"
        )

    def test_case_folding_collision_resolves_to_first_column(self):
        schema = Schema.build(
            {"T": (100, [("ab", 10, 4), ("AB", 10, 4), ("c", 10, 4)])}
        )
        query = parse_template(schema, "SELECT * FROM T WHERE Ab = ?")
        assert query.attributes == frozenset({0})


class TestParseUpdate:
    def test_set_and_where_both_count(self, tiny_schema):
        query = parse_template(
            tiny_schema,
            "UPDATE ORDERS SET STATUS = ? WHERE ID = ?",
        )
        assert query.kind is QueryKind.UPDATE
        assert query.attributes == frozenset({0, 2})

    def test_multiple_assignments(self, tiny_schema):
        query = parse_template(
            tiny_schema,
            "UPDATE ORDERS SET STATUS = ?, REGION = ? WHERE ID = ?",
        )
        assert query.attributes == frozenset({0, 2, 3})

    def test_update_without_where(self, tiny_schema):
        query = parse_template(
            tiny_schema, "UPDATE ORDERS SET STATUS = ?"
        )
        assert query.attributes == frozenset({2})

    def test_rejects_expression_assignment(self, tiny_schema):
        with pytest.raises(WorkloadError, match="unsupported assignment"):
            parse_template(
                tiny_schema,
                "UPDATE ORDERS SET STATUS = STATUS + 1 WHERE ID = ?",
            )


class TestParseInsert:
    def test_columns_count_as_attributes(self, tiny_schema):
        query = parse_template(
            tiny_schema,
            "INSERT INTO ITEMS (ID, ORDER_ID, SKU) VALUES (?, ?, ?)",
        )
        assert query.kind is QueryKind.INSERT
        assert query.attributes == frozenset({4, 5, 6})

    def test_rejects_unknown_statement(self, tiny_schema):
        with pytest.raises(WorkloadError, match="unsupported statement"):
            parse_template(tiny_schema, "DELETE FROM ORDERS WHERE ID = ?")


class TestWorkloadFromSql:
    def test_plain_strings(self, tiny_schema):
        workload = workload_from_sql(
            tiny_schema,
            [
                "SELECT * FROM ORDERS WHERE ID = ?",
                "SELECT * FROM ITEMS WHERE ID = ?",
            ],
        )
        assert workload.query_count == 2
        assert all(query.frequency == 1.0 for query in workload)

    def test_weighted_templates(self, tiny_schema):
        workload = workload_from_sql(
            tiny_schema,
            [
                ("SELECT * FROM ORDERS WHERE ID = ?", 100.0),
                ("UPDATE ORDERS SET STATUS = ? WHERE ID = ?", 25.0),
            ],
        )
        assert workload.query(0).frequency == 100.0
        assert workload.query(1).kind is QueryKind.UPDATE

    def test_list_pairs_are_accepted(self, tiny_schema):
        workload = workload_from_sql(
            tiny_schema, [["SELECT * FROM ORDERS WHERE ID = ?", 3.0]]
        )
        assert workload.query(0).frequency == 3.0

    @pytest.mark.parametrize(
        "entry",
        [
            ("SELECT * FROM ORDERS WHERE ID = ?",),
            ("SELECT * FROM ORDERS WHERE ID = ?", 1.0, 2.0),
            (1.0, "SELECT * FROM ORDERS WHERE ID = ?"),
            None,
            42,
            {"sql": "SELECT * FROM ORDERS WHERE ID = ?"},
        ],
    )
    def test_rejects_malformed_entries_by_position(self, tiny_schema, entry):
        with pytest.raises(WorkloadError, match="template entry 1 "):
            workload_from_sql(
                tiny_schema, ["SELECT * FROM ORDERS WHERE ID = ?", entry]
            )

    @pytest.mark.parametrize(
        "frequency", [float("nan"), float("inf"), "5", None, 0.0]
    )
    def test_rejects_bad_frequencies(self, tiny_schema, frequency):
        with pytest.raises(WorkloadError, match="frequency"):
            workload_from_sql(
                tiny_schema,
                [("SELECT * FROM ORDERS WHERE ID = ?", frequency)],
            )

    def test_end_to_end_selection_from_sql(self, tiny_schema):
        """The full pipeline: SQL strings in, index recommendation out."""
        from repro.core.extend import ExtendAlgorithm
        from repro.cost.model import CostModel
        from repro.cost.whatif import (
            AnalyticalCostSource,
            WhatIfOptimizer,
        )
        from repro.indexes.memory import relative_budget

        workload = workload_from_sql(
            tiny_schema,
            [
                ("SELECT * FROM ORDERS WHERE ID = ?", 1000.0),
                (
                    "SELECT * FROM ORDERS WHERE CUSTOMER = ? "
                    "AND REGION = ?",
                    500.0,
                ),
                ("SELECT * FROM ITEMS WHERE ID = ?", 2000.0),
            ],
        )
        optimizer = WhatIfOptimizer(
            AnalyticalCostSource(CostModel(tiny_schema))
        )
        budget = relative_budget(tiny_schema, 0.5)
        result = ExtendAlgorithm(optimizer).select(workload, budget)
        labels = {
            index.label(tiny_schema) for index in result.configuration
        }
        assert "ORDERS(ID)" in labels
        assert "ITEMS(ID)" in labels
