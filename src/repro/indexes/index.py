"""Multi-attribute index model.

A (multi-attribute) index ``k`` is an *ordered* tuple of attributes of a
single table (Section II-A).  Order matters: the usable part of an index
for a query is the longest *prefix* whose attributes the query accesses,
so ``(A, B)`` and ``(B, A)`` are different indexes with different value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.exceptions import IndexDefinitionError
from repro.workload.query import Query, QueryKind
from repro.workload.schema import Schema

__all__ = ["Index", "canonical_index", "canonical_order_key"]


@dataclass(frozen=True)
class Index:
    """An ordered multi-attribute index on one table.

    Attributes
    ----------
    table_name:
        The indexed table.
    attributes:
        Ordered global attribute ids ``(i_1, ..., i_K)``; the first entry
        is the leading attribute ``l(k)``.
    """

    table_name: str
    attributes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise IndexDefinitionError("an index needs >= 1 attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise IndexDefinitionError(
                f"duplicate attributes in index {self.attributes}"
            )

    def __hash__(self) -> int:
        # Same field tuple the generated dataclass hash would use, but
        # cached: cost caches key on the index, so a cost-table sweep
        # hashes each candidate thousands of times.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash((self.table_name, self.attributes))
            object.__setattr__(self, "_hash", value)
            return value

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, schema: Schema, attribute_ids: Iterable[int]) -> "Index":
        """Build an index, validating against the schema.

        All attributes must exist and belong to the same table.
        """
        attributes = tuple(attribute_ids)
        if not attributes:
            raise IndexDefinitionError("an index needs >= 1 attribute")
        tables = {
            schema.attribute(attribute_id).table_name
            for attribute_id in attributes
        }
        if len(tables) != 1:
            raise IndexDefinitionError(
                f"index attributes {attributes} span tables {sorted(tables)}"
            )
        return cls(table_name=tables.pop(), attributes=attributes)

    def extended_by(self, attribute_id: int) -> "Index":
        """A new index with ``attribute_id`` appended at the end.

        This is the "morphing" operation of Algorithm 1 Step (3b).  The
        caller is responsible for the attribute belonging to the same
        table (enforced when the index is used with a schema-aware cost
        model; :meth:`Index.of` validates eagerly).
        """
        if attribute_id in self.attributes:
            raise IndexDefinitionError(
                f"attribute {attribute_id} already in index "
                f"{self.attributes}"
            )
        return Index(self.table_name, self.attributes + (attribute_id,))

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def width(self) -> int:
        """Number of attributes ``K``."""
        return len(self.attributes)

    @property
    def leading_attribute(self) -> int:
        """The first attribute ``l(k)``, which gates applicability."""
        return self.attributes[0]

    @property
    def attribute_set(self) -> frozenset[int]:
        """The attributes as an (unordered) set."""
        return frozenset(self.attributes)

    # ------------------------------------------------------------------
    # Query interplay
    # ------------------------------------------------------------------

    def is_applicable_to(self, query: Query) -> bool:
        """Whether the index can support the query at all.

        Following Section II-B, an index is applicable iff its *leading*
        attribute appears in the query (and it indexes the query's table).
        """
        return (
            self.table_name == query.table_name
            and self.leading_attribute in query.attributes
        )

    def is_maintained_by(self, query: Query) -> bool:
        """Whether the query must keep the index consistent: an INSERT
        into the index's table, or an UPDATE of it that writes one of
        the index's attributes."""
        return self.table_name == query.table_name and (
            query.kind is QueryKind.INSERT
            or (
                query.kind is QueryKind.UPDATE
                and not query.attributes.isdisjoint(self.attributes)
            )
        )

    def usable_prefix(self, query: Query) -> tuple[int, ...]:
        """The longest index prefix fully contained in the query.

        This is ``U(q_j, k)`` of Appendix B(i): a composite index supports
        equality predicates only on a contiguous prefix of its attribute
        order.  Returns the empty tuple for inapplicable indexes.
        """
        if self.table_name != query.table_name:
            return ()
        usable: list[int] = []
        for attribute_id in self.attributes:
            if attribute_id not in query.attributes:
                break
            usable.append(attribute_id)
        return tuple(usable)

    def usable_prefix_length(self, query: Query) -> int:
        """Length of :meth:`usable_prefix` (0 if inapplicable)."""
        return len(self.usable_prefix(query))

    def is_prefix_of(self, other: "Index") -> bool:
        """Whether this index is a (proper or equal) prefix of ``other``."""
        return (
            self.table_name == other.table_name
            and other.attributes[: self.width] == self.attributes
        )

    def label(self, schema: Schema | None = None) -> str:
        """Human-readable label, e.g. ``"STOCK(W_ID, I_ID)"``."""
        if schema is None:
            names = ", ".join(str(a) for a in self.attributes)
        else:
            names = ", ".join(
                schema.attribute(a).name for a in self.attributes
            )
        return f"{self.table_name}({names})"

    def __repr__(self) -> str:
        return f"Index({self.table_name}, {self.attributes})"


def canonical_order_key(schema: Schema) -> Callable[[int], tuple[int, int]]:
    """Sort key of the canonical attribute order.

    Descending distinct count — the most selective attribute leads,
    which minimizes the scanned range for every usable prefix — with
    ascending attribute id as the tie-breaker.  Attribute ids are
    unique, so the key is a strict total order: any subsequence of a
    canonically sorted attribute list is canonically sorted too.
    """
    distinct_values = schema.distinct_values
    return lambda attribute_id: (-distinct_values(attribute_id), attribute_id)


def canonical_index(schema: Schema, attribute_ids: Iterable[int]) -> Index:
    """The canonical ("presumably best") permutation of an attribute set.

    Orders attributes by :func:`canonical_order_key`.  Section IV-B
    mentions this representative-permutation reduction; we also use it to
    define the exhaustive candidate set ``I_max`` (see DESIGN.md §3.5).
    """
    return Index.of(
        schema, sorted(attribute_ids, key=canonical_order_key(schema))
    )
