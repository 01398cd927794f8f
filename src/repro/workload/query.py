"""Queries and workloads.

Following Section II-A of the paper, a query ``q_j`` is characterized by
the set of attributes it accesses (a subset of the global attribute ids)
plus a frequency ``b_j``; queries operate on a single table (the paper's
"w.l.o.g." assumption, which holds for the conjunctive selection templates
used in all of its experiments).  A workload is a schema together with a
sequence of queries.

The paper notes that "a query ``q_j`` can be of various type, such as a
selection, join, insert, update" — :class:`QueryKind` models the types
with distinct cost behaviour: SELECTs benefit from indexes, UPDATEs pay
maintenance on every index covering a written attribute, INSERTs pay
maintenance on every index of the table.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.exceptions import WorkloadError
from repro.workload.schema import Schema

__all__ = ["Query", "QueryKind", "Workload"]


class QueryKind(enum.Enum):
    """How a query interacts with indexes."""

    # Members are singletons and compare by identity, so the identity
    # hash is consistent with equality — and C-speed.  Cost-model cache
    # keys embed the kind, making its hash a hot operation.
    __hash__ = object.__hash__

    SELECT = "select"
    """Reads rows; indexes can only help."""

    UPDATE = "update"
    """Locates rows by its attributes (indexes help) and rewrites those
    attributes (every index containing one of them pays maintenance)."""

    INSERT = "insert"
    """Appends rows; every index of the table pays maintenance and no
    index helps."""


@dataclass(frozen=True)
class Query:
    """A conjunctive query template.

    Attributes
    ----------
    query_id:
        Identifier, unique within a workload (0-based).
    table_name:
        The table the query reads.
    attributes:
        Global ids of the attributes accessed by the query (``q_j``).
        For UPDATEs these are both the locating predicate and the
        written attributes (a deliberate simplification — see
        DESIGN.md §3).
    frequency:
        Number of occurrences ``b_j`` (a positive, finite real weight).
    kind:
        The query type; defaults to SELECT.
    """

    query_id: int
    table_name: str
    attributes: frozenset[int]
    frequency: float
    kind: QueryKind = field(default=QueryKind.SELECT)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise WorkloadError(
                f"query {self.query_id} accesses no attributes"
            )
        if (
            isinstance(self.frequency, bool)
            or not isinstance(self.frequency, numbers.Real)
            or not math.isfinite(self.frequency)
            or self.frequency <= 0
        ):
            raise WorkloadError(
                f"query {self.query_id} needs a positive finite frequency, "
                f"got {self.frequency!r}"
            )
        # Content identity for cost caching: costs depend on the table,
        # the attribute set, and the kind — never on query_id or
        # frequency.  Precomputed once so the what-if facade's per-pair
        # key construction is a plain attribute read.
        object.__setattr__(
            self,
            "cache_key",
            (self.table_name, self.attributes, self.kind),
        )

    def __hash__(self) -> int:
        # Same field tuple the generated dataclass hash would use, but
        # cached: queries are hashed once per (query, index) pair in the
        # batched pricing paths, where recomputation dominates.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((
                self.query_id,
                self.table_name,
                self.attributes,
                self.frequency,
                self.kind,
            ))
            object.__setattr__(self, "_hash", value)
            return value

    @property
    def attribute_count(self) -> int:
        """Number of distinct attributes accessed, ``|q_j|``."""
        return len(self.attributes)

    @property
    def is_select(self) -> bool:
        """Whether this is a read-only query."""
        return self.kind is QueryKind.SELECT

    def accesses(self, attribute_id: int) -> bool:
        """Whether this query accesses the given attribute."""
        return attribute_id in self.attributes


class Workload:
    """A schema plus the queries executed against it.

    The workload validates on construction that every query references
    attributes of exactly its own table, so downstream code (cost models,
    candidate generators, solvers) can rely on this invariant.
    """

    def __init__(self, schema: Schema, queries: Iterable[Query]) -> None:
        self._schema = schema
        self._queries = tuple(queries)
        if not self._queries:
            raise WorkloadError("a workload needs at least one query")
        seen_ids: set[int] = set()
        for query in self._queries:
            if query.query_id in seen_ids:
                raise WorkloadError(
                    f"duplicate query id {query.query_id}"
                )
            seen_ids.add(query.query_id)
            if not schema.has_table(query.table_name):
                raise WorkloadError(
                    f"query {query.query_id} references unknown table "
                    f"{query.table_name!r}"
                )
            table_attribute_ids = {
                attribute.id
                for attribute in schema.attributes_of_table(query.table_name)
            }
            foreign = query.attributes - table_attribute_ids
            if foreign:
                raise WorkloadError(
                    f"query {query.query_id} on table "
                    f"{query.table_name!r} references attributes "
                    f"{sorted(foreign)} outside that table"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_attribute_sets(
        cls,
        schema: Schema,
        query_specs: Sequence[tuple[str, Iterable[int], float]],
    ) -> "Workload":
        """Build a workload from ``(table, attribute_ids, frequency)``.

        Query ids are assigned sequentially in the given order.
        """
        queries = [
            Query(
                query_id=query_id,
                table_name=table_name,
                attributes=frozenset(attribute_ids),
                frequency=frequency,
            )
            for query_id, (table_name, attribute_ids, frequency) in enumerate(
                query_specs
            )
        ]
        return cls(schema, queries)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema the workload runs against."""
        return self._schema

    @property
    def queries(self) -> tuple[Query, ...]:
        """All queries, in definition order."""
        return self._queries

    @property
    def query_count(self) -> int:
        """Number of query templates ``Q``."""
        return len(self._queries)

    def query(self, query_id: int) -> Query:
        """Return the query with the given id."""
        for candidate in self._queries:
            if candidate.query_id == query_id:
                return candidate
        raise WorkloadError(f"unknown query id {query_id}")

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries)

    def __len__(self) -> int:
        return len(self._queries)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def queries_of_table(self, table_name: str) -> tuple[Query, ...]:
        """All queries that read the named table."""
        return tuple(
            query for query in self._queries
            if query.table_name == table_name
        )

    def queries_accessing(self, attribute_id: int) -> tuple[Query, ...]:
        """All queries whose attribute set contains ``attribute_id``."""
        return tuple(
            query for query in self._queries
            if attribute_id in query.attributes
        )

    def total_frequency(self) -> float:
        """Sum of all query frequencies (total executions)."""
        return sum(query.frequency for query in self._queries)

    def filter(self, predicate: Callable[[Query], bool]) -> "Workload":
        """A new workload containing only queries matching ``predicate``."""
        kept = [query for query in self._queries if predicate(query)]
        if not kept:
            raise WorkloadError("filter removed every query")
        return Workload(self._schema, kept)

    def scaled(self, factor: float) -> "Workload":
        """A new workload with all frequencies multiplied by ``factor``."""
        if factor <= 0:
            raise WorkloadError(f"scale factor must be > 0, got {factor}")
        scaled_queries = [
            Query(
                query_id=query.query_id,
                table_name=query.table_name,
                attributes=query.attributes,
                frequency=query.frequency * factor,
                kind=query.kind,
            )
            for query in self._queries
        ]
        return Workload(self._schema, scaled_queries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workload(queries={self.query_count}, "
            f"tables={self._schema.table_count}, "
            f"attributes={self._schema.attribute_count})"
        )
