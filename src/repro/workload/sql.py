"""SQL template ingestion.

Real workloads arrive as SQL statements, not attribute sets.  This module
parses the conjunctive template dialect the paper's model covers into
:class:`~repro.workload.query.Query` objects:

* ``SELECT ... FROM <table> WHERE a = ? AND b = ?``
* ``UPDATE <table> SET a = ?, b = ? WHERE c = ?``
* ``INSERT INTO <table> (a, b, c) VALUES (...)``

The parser is deliberately small: one table per statement, equality
predicates combined with ``AND``, attribute references resolved against
the schema.  Anything outside the dialect raises
:class:`~repro.exceptions.WorkloadError` with a message naming the
offending construct — silent misparses would corrupt selection inputs.

Columns mentioned in the SELECT projection list are *not* counted as
accessed attributes: the paper's ``q_j`` models the attributes a query
*filters* on, which is what indexes accelerate.  For UPDATEs, both the
``SET`` columns and the ``WHERE`` columns enter the attribute set
(matching the cost model's combined locate/maintain semantics).
"""

from __future__ import annotations

import re

from repro.exceptions import WorkloadError
from repro.workload.query import Query, QueryKind, Workload
from repro.workload.schema import Schema

__all__ = ["parse_template", "workload_from_sql"]

_SELECT = re.compile(
    r"^\s*SELECT\s+(?P<projection>.+?)\s+FROM\s+(?P<table>\w+)"
    r"(?:\s+WHERE\s+(?P<where>.+?))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_UPDATE = re.compile(
    r"^\s*UPDATE\s+(?P<table>\w+)\s+SET\s+(?P<assignments>.+?)"
    r"(?:\s+WHERE\s+(?P<where>.+?))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_INSERT = re.compile(
    r"^\s*INSERT\s+INTO\s+(?P<table>\w+)\s*"
    r"\(\s*(?P<columns>[\w\s,]+?)\s*\)\s*VALUES\s*\(.+?\)\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_PREDICATE = re.compile(
    r"^\s*(?P<column>\w+)\s*=\s*(?:\?|:\w+|%s|'[^']*'|[\w.]+)\s*$"
)
_ASSIGNMENT = re.compile(
    r"^\s*(?P<column>\w+)\s*=\s*(?:\?|:\w+|%s|'[^']*'|[\w.]+)\s*$"
)


class _Columns:
    """Column resolution against one schema: per table, one map from the
    upper-cased column name to its attribute id, built on first use.
    Names fold with ``str.upper``; on a collision the first attribute of
    the table wins."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._tables: dict[str, dict[str, int]] = {}

    def resolve(self, table_name: str, column: str, sql: str) -> int:
        columns = self._tables.get(table_name)
        if columns is None:
            if not self._schema.has_table(table_name):
                raise WorkloadError(
                    f"unknown table {table_name!r} in template: {sql!r}"
                )
            columns = {}
            for attribute in self._schema.table(table_name).attributes:
                columns.setdefault(attribute.name.upper(), attribute.id)
            self._tables[table_name] = columns
        attribute_id = columns.get(column.upper())
        if attribute_id is None:
            raise WorkloadError(
                f"unknown column {column!r} on table {table_name!r} in "
                f"template: {sql!r}"
            )
        return attribute_id


def _parse_where(
    columns: _Columns, table_name: str, where: str, sql: str
) -> set[int]:
    attribute_ids: set[int] = set()
    for predicate in re.split(r"\s+AND\s+", where, flags=re.IGNORECASE):
        match = _PREDICATE.match(predicate)
        if match is None:
            raise WorkloadError(
                f"unsupported predicate {predicate.strip()!r} in "
                f"template: {sql!r} (only equality predicates combined "
                "with AND are supported)"
            )
        attribute_ids.add(
            columns.resolve(table_name, match.group("column"), sql)
        )
    return attribute_ids


def parse_template(
    schema: Schema, sql: str, *, query_id: int = 0, frequency: float = 1.0
) -> Query:
    """Parse one SQL template into a :class:`Query`.

    Raises
    ------
    WorkloadError
        For statements outside the supported dialect, unknown tables or
        columns, or SELECT/UPDATE statements without any predicate.
    """
    return _parse(_Columns(schema), sql, query_id, frequency)


def _parse(
    columns: _Columns, sql: str, query_id: int, frequency: float
) -> Query:
    select = _SELECT.match(sql)
    if select is not None:
        table_name = select.group("table")
        where = select.group("where")
        if not where:
            raise WorkloadError(
                f"SELECT without WHERE accesses no indexed attributes: "
                f"{sql!r}"
            )
        attributes = _parse_where(columns, table_name, where, sql)
        return Query(
            query_id, table_name, frozenset(attributes), frequency
        )

    update = _UPDATE.match(sql)
    if update is not None:
        table_name = update.group("table")
        attributes: set[int] = set()
        for assignment in update.group("assignments").split(","):
            match = _ASSIGNMENT.match(assignment)
            if match is None:
                raise WorkloadError(
                    f"unsupported assignment {assignment.strip()!r} in "
                    f"template: {sql!r}"
                )
            attributes.add(
                columns.resolve(table_name, match.group("column"), sql)
            )
        where = update.group("where")
        if where:
            attributes |= _parse_where(columns, table_name, where, sql)
        return Query(
            query_id,
            table_name,
            frozenset(attributes),
            frequency,
            kind=QueryKind.UPDATE,
        )

    insert = _INSERT.match(sql)
    if insert is not None:
        table_name = insert.group("table")
        attributes = {
            columns.resolve(table_name, column.strip(), sql)
            for column in insert.group("columns").split(",")
        }
        return Query(
            query_id,
            table_name,
            frozenset(attributes),
            frequency,
            kind=QueryKind.INSERT,
        )

    raise WorkloadError(
        f"unsupported statement (expected SELECT/UPDATE/INSERT in the "
        f"conjunctive-template dialect): {sql!r}"
    )


def workload_from_sql(
    schema: Schema,
    templates: list[tuple[str, float]] | list[str],
) -> Workload:
    """Build a workload from SQL templates.

    ``templates`` is either a list of SQL strings (frequency 1 each) or
    ``(sql, frequency)`` pairs.  Query ids are assigned sequentially.

    Raises
    ------
    WorkloadError
        For an entry that is neither a string nor a ``(sql, frequency)``
        pair (naming its position), a frequency that is not a positive
        finite number, or a template :func:`parse_template` rejects.
    """
    columns = _Columns(schema)
    queries: list[Query] = []
    for position, entry in enumerate(templates):
        if isinstance(entry, str):
            sql, frequency = entry, 1.0
        elif (
            isinstance(entry, (tuple, list))
            and len(entry) == 2
            and isinstance(entry[0], str)
        ):
            sql, frequency = entry
        else:
            raise WorkloadError(
                f"template entry {position} must be an SQL string or an "
                f"(sql, frequency) pair, got {entry!r}"
            )
        queries.append(_parse(columns, sql, position, frequency))
    return Workload(schema, queries)
