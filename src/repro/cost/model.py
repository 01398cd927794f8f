"""Analytic scan cost model (paper Appendix B(i)).

Costs are expressed as memory traffic in bytes, mirroring a vector-at-a-
time columnar execution model.  For a query ``q_j`` evaluated with an
index ``k`` whose usable prefix is ``U = U(q_j, k)``:

* **index access** over the prefix::

      log2(n) + sum_{i in U} a_i * log2(d_i) + 4 * n * prod_{i in U} s_i

  — a binary search descent, per-attribute comparisons within runs, and a
  4-byte position-list entry per qualifying row (see DESIGN.md §3.1 for
  why the output term carries the row count ``n``),

* **residual scan** of the remaining attributes ``q_j \\ U``, ordered by
  ascending selectivity (most selective first): each attribute reads
  ``a_i`` bytes per still-qualifying row and writes a 4-byte position-list
  entry per surviving row, with the qualifying fraction shrinking
  multiplicatively.

``f_j(0)`` is the residual scan with an empty prefix.  The "one index
only" variant of Example 1 (i) takes the best single index; the
multi-index variant implements Appendix B(i) steps 1–4, greedily applying
further indexes to the remaining attributes while beneficial.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.exceptions import CostModelError
from repro.indexes.index import Index
from repro.workload.query import Query, QueryKind
from repro.workload.schema import Schema

__all__ = ["CostModel"]

_POSITION_LIST_ENTRY_BYTES = 4


class CostModel:
    """The reproducible exemplary cost model of Appendix B.

    Parameters
    ----------
    schema:
        Supplies row counts ``n``, distinct counts ``d_i``, value sizes
        ``a_i``, and selectivities ``s_i``.
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        # Residual-scan orderings are pure functions of the attribute
        # set (selectivities are fixed per schema), and the selection
        # algorithms price the same query against many candidates —
        # memoizing by frozenset skips the per-call re-sort.
        self._order_cache: dict[frozenset, tuple[int, ...]] = {}

    @property
    def schema(self) -> Schema:
        """The schema this model evaluates against."""
        return self._schema

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------

    def _ordered_by_selectivity(
        self, attribute_ids: Iterable[int]
    ) -> tuple[int, ...]:
        """Attributes sorted ascending by ``(selectivity, id)``.

        The key is a total order, so the result is independent of the
        input ordering and safe to memoize by attribute *set*.
        """
        key = frozenset(attribute_ids)
        ordered = self._order_cache.get(key)
        if ordered is None:
            schema = self._schema
            ordered = tuple(
                sorted(
                    key,
                    key=lambda attribute_id: (
                        schema.selectivity(attribute_id),
                        attribute_id,
                    ),
                )
            )
            self._order_cache[key] = ordered
        return ordered

    def _residual_scan_cost(
        self,
        row_count: int,
        qualifying_fraction: float,
        remaining_attribute_ids: Iterable[int],
    ) -> float:
        """Filtered sequential scan over the remaining attributes.

        ``qualifying_fraction`` is the share of the table's rows still
        qualifying before the scan starts (1.0 when no index was used).
        """
        schema = self._schema
        ordered = self._ordered_by_selectivity(remaining_attribute_ids)
        cost = 0.0
        fraction = qualifying_fraction
        for attribute_id in ordered:
            rows_scanned = row_count * fraction
            cost += rows_scanned * schema.value_size(attribute_id)
            fraction *= schema.selectivity(attribute_id)
            cost += _POSITION_LIST_ENTRY_BYTES * row_count * fraction
        return cost

    def _index_access_cost(
        self, row_count: int, prefix: Sequence[int]
    ) -> tuple[float, float]:
        """Index probe over a usable prefix.

        Returns ``(cost, qualifying_fraction)`` where the fraction is the
        product of the prefix attributes' selectivities.
        """
        if not prefix:
            raise CostModelError("index access needs a non-empty prefix")
        schema = self._schema
        cost = math.log2(row_count) if row_count > 1 else 1.0
        fraction = 1.0
        for attribute_id in prefix:
            cost += schema.value_size(attribute_id) * math.log2(
                max(schema.distinct_values(attribute_id), 2)
            )
            fraction *= schema.selectivity(attribute_id)
        cost += _POSITION_LIST_ENTRY_BYTES * row_count * fraction
        return cost, fraction

    # ------------------------------------------------------------------
    # Per-query costs
    # ------------------------------------------------------------------

    def sequential_cost(self, query: Query) -> float:
        """``f_j(0)``: cost of evaluating the query without any index.

        For UPDATEs this is the cost of *locating* the affected rows (no
        maintenance — there are no indexes).  INSERTs pay a constant
        append of their attribute values.
        """
        row_count = self._schema.table(query.table_name).row_count
        if query.kind is QueryKind.INSERT:
            return float(
                sum(
                    self._schema.value_size(attribute_id)
                    for attribute_id in query.attributes
                )
            )
        return self._residual_scan_cost(row_count, 1.0, query.attributes)

    def maintenance_cost(self, query: Query, index: Index) -> float:
        """Per-execution cost of keeping ``index`` consistent.

        UPDATEs pay for every index that contains a written attribute
        and INSERTs for *every* index of the table
        (:meth:`Index.is_maintained_by`), each the same
        :meth:`index_maintenance`.  SELECTs pay nothing.
        """
        if not index.is_maintained_by(query):
            return 0.0
        return self.index_maintenance(index)

    def index_maintenance(self, index: Index) -> float:
        """``m_k``: what one maintaining write pays for ``index`` — locate
        the entry (binary search), rewrite the value columns, and touch
        the position list."""
        row_count = self._schema.table(index.table_name).row_count
        locate = math.log2(row_count) if row_count > 1 else 1.0
        rewrite = float(
            sum(
                self._schema.value_size(attribute_id)
                for attribute_id in index.attributes
            )
        )
        position_entry = math.ceil(math.log2(max(row_count, 2))) / 8
        return locate + rewrite + position_entry

    def index_cost(self, query: Query, index: Index) -> float:
        """``f_j(k)``: cost of evaluating the query with exactly one index.

        The optimizer picks the cheapest plan the index enables: any
        *truncation* of the usable prefix may be descended, with the
        remaining attributes scanned sequentially — descending one more
        index attribute is not always cheaper than filtering the few
        surviving rows.  Never exceeds :meth:`sequential_cost` (a harmful
        index is simply not used), which keeps ``f_j`` monotone under
        index extension: every plan of ``k`` is also a plan of ``k·i``.
        """
        if (
            index.table_name != query.table_name
            or query.kind is QueryKind.INSERT
        ):
            return self.sequential_cost(query)
        prefix = index.usable_prefix(query)
        best = self.sequential_cost(query)
        if not prefix:
            return best
        row_count = self._schema.table(query.table_name).row_count
        for length in range(1, len(prefix) + 1):
            truncated = prefix[:length]
            access_cost, fraction = self._index_access_cost(
                row_count, truncated
            )
            remaining = query.attributes - frozenset(truncated)
            cost = access_cost + self._residual_scan_cost(
                row_count, fraction, remaining
            )
            best = min(best, cost)
        return best

    def best_single_index_cost(
        self, query: Query, indexes: Iterable[Index]
    ) -> float:
        """``f_j(I*) = min(f_j(0), min_{k in I*} f_j(k))``.

        The "one index only" setting of Example 1 (i), used for the
        CoPhy comparison experiments.
        """
        best = self.sequential_cost(query)
        for index in indexes:
            if index.is_applicable_to(query):
                best = min(best, self.index_cost(query, index))
        return best

    def multi_index_cost(
        self, query: Query, indexes: Iterable[Index]
    ) -> float:
        """Appendix B(i) steps 1–4: greedy multi-index evaluation.

        Repeatedly picks the (index, prefix-truncation) pair that most
        reduces the estimated total cost: the pair's index-access cost is
        charged, its covered attributes leave the remaining set, and
        every applied index multiplies the qualifying fraction (position
        lists are intersected).  Further indexes are applied only while
        they beat scanning their attributes sequentially at the current
        fraction; whatever remains is scanned (Appendix B(i) step 5).
        """
        if query.kind is QueryKind.INSERT:
            return self.sequential_cost(query)
        row_count = self._schema.table(query.table_name).row_count
        available = [
            index
            for index in indexes
            if index.table_name == query.table_name
        ]
        remaining = set(query.attributes)
        fraction = 1.0
        total = 0.0
        used: set[Index] = set()
        while remaining:
            baseline = self._residual_scan_cost(
                row_count, fraction, remaining
            )
            best_choice: (
                tuple[float, tuple[int, ...], Index] | None
            ) = None
            for index in available:
                if index in used:
                    continue
                prefix = _usable_prefix_over(index, remaining)
                for length in range(1, len(prefix) + 1):
                    truncated = prefix[:length]
                    access_cost, covered_fraction = (
                        self._index_access_cost(row_count, truncated)
                    )
                    rest = remaining - set(truncated)
                    estimate = access_cost + self._residual_scan_cost(
                        row_count, fraction * covered_fraction, rest
                    )
                    if best_choice is None or estimate < best_choice[0]:
                        best_choice = (estimate, truncated, index)
            if best_choice is None or best_choice[0] >= baseline:
                break
            _, truncated, chosen = best_choice
            access_cost, covered_fraction = self._index_access_cost(
                row_count, truncated
            )
            total += access_cost
            fraction *= covered_fraction
            remaining -= set(truncated)
            used.add(chosen)
        total += self._residual_scan_cost(row_count, fraction, remaining)
        return total


def _usable_prefix_over(
    index: Index, attribute_ids: set[int]
) -> tuple[int, ...]:
    """Longest index prefix contained in an arbitrary attribute set."""
    usable: list[int] = []
    for attribute_id in index.attributes:
        if attribute_id not in attribute_ids:
            break
        usable.append(attribute_id)
    return tuple(usable)
