"""Schema model: attributes, tables, and whole-database schemas.

The paper (Section II-A and Appendix A) characterizes a database by

* ``N`` attributes, globally numbered,
* per attribute ``i``: the number of distinct values ``d_i``, the value
  size ``a_i`` in bytes, and the selectivity ``s_i = 1 / d_i``,
* per table: the row count ``n`` shared by all attributes of the table.

This module provides immutable value objects for these concepts.  Attribute
identifiers are global (unique across the whole schema), matching the
paper's notation where queries are subsets of ``{1, ..., N}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.exceptions import SchemaError

__all__ = ["Attribute", "Table", "Schema"]


@dataclass(frozen=True)
class Attribute:
    """A single table attribute (column) with its statistics.

    Attributes
    ----------
    id:
        Global identifier, unique across the schema (0-based).
    name:
        Column name, unique within its table.
    table_name:
        Name of the owning table.
    position:
        0-based position of the column within its table.
    distinct_values:
        Number of distinct values ``d_i`` (at least 1).
    value_size:
        Size of one value in bytes, ``a_i`` (at least 1).
    """

    id: int
    name: str
    table_name: str
    position: int
    distinct_values: int
    value_size: int

    def __post_init__(self) -> None:
        if self.id < 0:
            raise SchemaError(f"attribute id must be >= 0, got {self.id}")
        if self.distinct_values < 1:
            raise SchemaError(
                f"attribute {self.qualified_name} needs >= 1 distinct "
                f"values, got {self.distinct_values}"
            )
        if self.value_size < 1:
            raise SchemaError(
                f"attribute {self.qualified_name} needs a positive value "
                f"size, got {self.value_size}"
            )

    @property
    def qualified_name(self) -> str:
        """``table.column`` notation, e.g. ``"STOCK.W_ID"``."""
        return f"{self.table_name}.{self.name}"

    @property
    def selectivity(self) -> float:
        """Selectivity ``s_i = 1 / d_i`` of an equality predicate."""
        return 1.0 / self.distinct_values


@dataclass(frozen=True)
class Table:
    """A table: a name, a row count, and an ordered tuple of attributes."""

    name: str
    row_count: int
    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        if self.row_count < 1:
            raise SchemaError(
                f"table {self.name!r} needs >= 1 row, got {self.row_count}"
            )
        if not self.attributes:
            raise SchemaError(f"table {self.name!r} has no attributes")
        seen_names: set[str] = set()
        for position, attribute in enumerate(self.attributes):
            if attribute.table_name != self.name:
                raise SchemaError(
                    f"attribute {attribute.qualified_name} does not belong "
                    f"to table {self.name!r}"
                )
            if attribute.position != position:
                raise SchemaError(
                    f"attribute {attribute.qualified_name} has position "
                    f"{attribute.position}, expected {position}"
                )
            if attribute.name in seen_names:
                raise SchemaError(
                    f"duplicate attribute name {attribute.name!r} in table "
                    f"{self.name!r}"
                )
            seen_names.add(attribute.name)
            if attribute.distinct_values > self.row_count:
                raise SchemaError(
                    f"attribute {attribute.qualified_name} has more "
                    f"distinct values ({attribute.distinct_values}) than "
                    f"the table has rows ({self.row_count})"
                )

    @property
    def attribute_count(self) -> int:
        """Number of attributes ``N_t`` of this table."""
        return len(self.attributes)

    @property
    def width_bytes(self) -> int:
        """Total bytes per row across all attributes."""
        return sum(attribute.value_size for attribute in self.attributes)

    def attribute_by_name(self, name: str) -> Attribute:
        """Return the attribute called ``name`` or raise ``SchemaError``."""
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise SchemaError(f"table {self.name!r} has no attribute {name!r}")


class Schema:
    """An immutable collection of tables with global attribute numbering.

    The schema is the single source of truth for attribute statistics: cost
    models, candidate generators, and the execution engine all resolve
    attribute identifiers through it.

    Parameters
    ----------
    tables:
        The tables of the database.  Attribute ids must be globally unique
        and are usually assigned by :meth:`Schema.build`.
    """

    def __init__(self, tables: Iterable[Table]) -> None:
        self._tables: dict[str, Table] = {}
        self._attributes: dict[int, Attribute] = {}
        for table in tables:
            if table.name in self._tables:
                raise SchemaError(f"duplicate table name {table.name!r}")
            self._tables[table.name] = table
            for attribute in table.attributes:
                if attribute.id in self._attributes:
                    raise SchemaError(
                        f"duplicate attribute id {attribute.id} "
                        f"({attribute.qualified_name} clashes with "
                        f"{self._attributes[attribute.id].qualified_name})"
                    )
                self._attributes[attribute.id] = attribute
        if not self._tables:
            raise SchemaError("a schema needs at least one table")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        table_specs: Mapping[str, tuple[int, Iterable[tuple[str, int, int]]]],
    ) -> "Schema":
        """Build a schema from a declarative specification.

        Parameters
        ----------
        table_specs:
            Maps table name to ``(row_count, columns)`` where ``columns``
            is an iterable of ``(column_name, distinct_values, value_size)``
            triples.  Global attribute ids are assigned in iteration order.

        Examples
        --------
        >>> schema = Schema.build({
        ...     "T": (1000, [("A", 100, 4), ("B", 10, 8)]),
        ... })
        >>> schema.attribute_count
        2
        """
        tables: list[Table] = []
        next_id = 0
        for table_name, (row_count, columns) in table_specs.items():
            attributes: list[Attribute] = []
            for position, (name, distinct_values, value_size) in enumerate(
                columns
            ):
                attributes.append(
                    Attribute(
                        id=next_id,
                        name=name,
                        table_name=table_name,
                        position=position,
                        distinct_values=distinct_values,
                        value_size=value_size,
                    )
                )
                next_id += 1
            tables.append(
                Table(
                    name=table_name,
                    row_count=row_count,
                    attributes=tuple(attributes),
                )
            )
        return cls(tables)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    @property
    def tables(self) -> tuple[Table, ...]:
        """All tables, in definition order."""
        return tuple(self._tables.values())

    @property
    def table_count(self) -> int:
        """Number of tables ``T``."""
        return len(self._tables)

    @property
    def attribute_count(self) -> int:
        """Total number of attributes ``N`` across all tables."""
        return len(self._attributes)

    @property
    def attribute_ids(self) -> tuple[int, ...]:
        """All global attribute ids, ascending."""
        return tuple(sorted(self._attributes))

    def table(self, name: str) -> Table:
        """Return the table called ``name`` or raise ``SchemaError``."""
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Whether a table called ``name`` exists."""
        return name in self._tables

    def attribute(self, attribute_id: int) -> Attribute:
        """Return the attribute with the given global id."""
        try:
            return self._attributes[attribute_id]
        except KeyError:
            raise SchemaError(
                f"unknown attribute id {attribute_id}"
            ) from None

    def table_of(self, attribute_id: int) -> Table:
        """Return the table owning the given attribute."""
        return self._tables[self.attribute(attribute_id).table_name]

    def row_count(self, attribute_id: int) -> int:
        """Row count ``n`` of the table owning the given attribute."""
        return self.table_of(attribute_id).row_count

    def selectivity(self, attribute_id: int) -> float:
        """Selectivity ``s_i`` of the given attribute."""
        return self.attribute(attribute_id).selectivity

    def distinct_values(self, attribute_id: int) -> int:
        """Distinct count ``d_i`` of the given attribute."""
        return self.attribute(attribute_id).distinct_values

    def value_size(self, attribute_id: int) -> int:
        """Value size ``a_i`` in bytes of the given attribute."""
        return self.attribute(attribute_id).value_size

    def iter_attributes(self) -> Iterator[Attribute]:
        """Iterate over all attributes in ascending id order."""
        for attribute_id in sorted(self._attributes):
            yield self._attributes[attribute_id]

    def attributes_of_table(self, table_name: str) -> tuple[Attribute, ...]:
        """All attributes of the named table."""
        return self.table(table_name).attributes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Schema(tables={self.table_count}, "
            f"attributes={self.attribute_count})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.tables == other.tables

    def __hash__(self) -> int:
        return hash(self.tables)
