"""Tests for the schema model."""

from __future__ import annotations

import pytest

from repro.exceptions import SchemaError
from repro.workload.schema import Attribute, Schema, Table


def _attribute(**overrides) -> Attribute:
    defaults = dict(
        id=0,
        name="A",
        table_name="T",
        position=0,
        distinct_values=10,
        value_size=4,
    )
    defaults.update(overrides)
    return Attribute(**defaults)


class TestAttribute:
    def test_selectivity_is_inverse_distinct(self):
        attribute = _attribute(distinct_values=250)
        assert attribute.selectivity == pytest.approx(1 / 250)

    def test_qualified_name(self):
        attribute = _attribute(name="W_ID", table_name="STOCK")
        assert attribute.qualified_name == "STOCK.W_ID"

    def test_rejects_zero_distinct_values(self):
        with pytest.raises(SchemaError, match="distinct"):
            _attribute(distinct_values=0)

    def test_rejects_zero_value_size(self):
        with pytest.raises(SchemaError, match="value "):
            _attribute(value_size=0)

    def test_rejects_negative_id(self):
        with pytest.raises(SchemaError, match="id"):
            _attribute(id=-1)


class TestTable:
    def test_width_bytes_sums_value_sizes(self):
        table = Table(
            name="T",
            row_count=100,
            attributes=(
                _attribute(id=0, name="A", value_size=4),
                _attribute(id=1, name="B", position=1, value_size=8),
            ),
        )
        assert table.width_bytes == 12
        assert table.attribute_count == 2

    def test_rejects_empty_table(self):
        with pytest.raises(SchemaError, match="no attributes"):
            Table(name="T", row_count=10, attributes=())

    def test_rejects_zero_rows(self):
        with pytest.raises(SchemaError, match="row"):
            Table(name="T", row_count=0, attributes=(_attribute(),))

    def test_rejects_duplicate_column_names(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Table(
                name="T",
                row_count=100,
                attributes=(
                    _attribute(id=0, name="A"),
                    _attribute(id=1, name="A", position=1),
                ),
            )

    def test_rejects_wrong_position(self):
        with pytest.raises(SchemaError, match="position"):
            Table(
                name="T",
                row_count=100,
                attributes=(_attribute(position=3),),
            )

    def test_rejects_foreign_attribute(self):
        with pytest.raises(SchemaError, match="belong"):
            Table(
                name="T",
                row_count=100,
                attributes=(_attribute(table_name="OTHER"),),
            )

    def test_rejects_more_distinct_than_rows(self):
        with pytest.raises(SchemaError, match="distinct"):
            Table(
                name="T",
                row_count=5,
                attributes=(_attribute(distinct_values=10),),
            )

    def test_attribute_by_name(self):
        table = Table(name="T", row_count=100, attributes=(_attribute(),))
        assert table.attribute_by_name("A").id == 0
        with pytest.raises(SchemaError, match="no attribute"):
            table.attribute_by_name("MISSING")


class TestSchema:
    def test_build_assigns_sequential_global_ids(self, tiny_schema):
        ids = [a.id for a in tiny_schema.iter_attributes()]
        assert ids == list(range(7))

    def test_counts(self, tiny_schema):
        assert tiny_schema.table_count == 2
        assert tiny_schema.attribute_count == 7

    def test_lookup_roundtrip(self, tiny_schema):
        attribute = tiny_schema.attribute(5)
        assert attribute.table_name == "ITEMS"
        assert tiny_schema.table_of(5).name == "ITEMS"
        assert tiny_schema.row_count(5) == 50_000

    def test_statistics_accessors(self, tiny_schema):
        assert tiny_schema.distinct_values(2) == 5
        assert tiny_schema.selectivity(2) == pytest.approx(0.2)
        assert tiny_schema.value_size(2) == 1

    def test_unknown_lookups_raise(self, tiny_schema):
        with pytest.raises(SchemaError, match="unknown table"):
            tiny_schema.table("NOPE")
        with pytest.raises(SchemaError, match="unknown attribute"):
            tiny_schema.attribute(99)

    def test_rejects_duplicate_table_names(self):
        table = Table(name="T", row_count=10, attributes=(_attribute(),))
        with pytest.raises(SchemaError, match="duplicate table"):
            Schema([table, table])

    def test_rejects_duplicate_attribute_ids(self):
        first = Table(name="T", row_count=10, attributes=(_attribute(),))
        second = Table(
            name="U",
            row_count=10,
            attributes=(_attribute(table_name="U"),),
        )
        with pytest.raises(SchemaError, match="duplicate attribute id"):
            Schema([first, second])

    def test_rejects_empty_schema(self):
        with pytest.raises(SchemaError, match="at least one table"):
            Schema([])

    def test_equality_and_hash(self, tiny_schema):
        clone = Schema(tiny_schema.tables)
        assert clone == tiny_schema
        assert hash(clone) == hash(tiny_schema)
