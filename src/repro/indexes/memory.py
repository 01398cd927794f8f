"""Index memory model (paper Appendix B(ii)).

The memory consumed by a multi-attribute index ``k`` on a table with ``n``
rows is::

    p_k = ceil(ceil(log2(n)) * n / 8) + sum_{i in k} a_i * n

i.e. a packed position list of ``n`` row ids at ``ceil(log2 n)`` bits each,
plus one sorted value column per indexed attribute.
"""

from __future__ import annotations

import math
import sys
import weakref
from typing import Iterable

from repro.exceptions import BudgetError
from repro.indexes.index import Index
from repro.workload.schema import Schema

__all__ = [
    "index_memory",
    "configuration_memory",
    "single_attribute_total_memory",
    "relative_budget",
]


def index_memory(schema: Schema, index: Index) -> int:
    """Memory footprint ``p_k`` in bytes of one index."""
    n = schema.table(index.table_name).row_count
    position_list = math.ceil(math.ceil(math.log2(n)) * n / 8) if n > 1 else 1
    values = sum(
        schema.value_size(attribute_id) * n
        for attribute_id in index.attributes
    )
    return position_list + values


def configuration_memory(schema: Schema, indexes: Iterable[Index]) -> int:
    """Total memory ``P(I*) = Σ p_k`` of a set of indexes (Eq. 2)."""
    return sum(index_memory(schema, index) for index in indexes)


_SINGLE_TOTALS: dict[int, tuple[weakref.ref, int]] = {}
"""``id(schema)`` → (weak reference to the schema, its total); an entry
leaves when its schema is collected.  Keyed by identity: hashing a
paper-scale schema walks thousands of attributes."""


def single_attribute_total_memory(schema: Schema) -> int:
    """Memory required to index every attribute individually.

    The denominator of the relative budget ``A(w)`` (Eq. 10).  Schemas
    are immutable, so it is summed once per schema object (every
    request and every sweep point asks for it).
    """
    key = id(schema)
    entry = _SINGLE_TOTALS.get(key)
    if entry is None or entry[0]() is not schema:
        total = sum(
            index_memory(
                schema, Index(attribute.table_name, (attribute.id,))
            )
            for attribute in schema.iter_attributes()
        )
        entry = (
            weakref.ref(schema, lambda _: _SINGLE_TOTALS.pop(key, None)),
            total,
        )
        _SINGLE_TOTALS[key] = entry
    return entry[1]


def relative_budget(schema: Schema, w: float) -> float:
    """Absolute budget ``A(w) = w * Σ_{single-attribute k} p_k`` (Eq. 10).

    ``w`` is the share of the memory needed to index every attribute once;
    the paper sweeps ``w`` between 0 and 1.
    """
    # NaN fails every comparison, so test for the accepted range; a
    # finite share can still give an infinite (or, as an int, an
    # unconvertible) budget.
    budget = w * single_attribute_total_memory(schema) if w >= 0 else -1
    if not 0 <= budget <= sys.float_info.max:
        raise BudgetError(
            "relative budget share must be >= 0 and give a finite "
            f"budget, got {w}"
        )
    return budget
