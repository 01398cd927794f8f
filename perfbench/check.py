"""Answer checks, run outside every timed region.

The reference is a separate scalar-model what-if facade over the
workload as generated (not as parsed), so a misparsed template or a
mispriced configuration both show up as a cost mismatch.
"""

from __future__ import annotations

import re
from collections import defaultdict

from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.indexes.index import Index
from repro.indexes.memory import configuration_memory
from repro.workload.query import Workload
from repro.workload.schema import Schema

COST_TOLERANCE = 1e-9
_LABEL = re.compile(r"^(?P<table>\w+)\((?P<columns>[^()]*)\)$")


class CheckError(AssertionError):
    """A recommendation failed a check."""


def index_from_label(schema: Schema, label: str) -> Index:
    """Invert ``Index.label(schema)`` (``"T01(C003, C007)"``)."""
    match = _LABEL.match(label)
    if match is None:
        raise CheckError(f"unparseable index label {label!r}")
    table = schema.table(match.group("table"))
    return Index(
        table.name,
        tuple(
            table.attribute_by_name(name.strip()).id
            for name in match.group("columns").split(",")
        ),
    )


class Checker:
    """Checks recommendations against one schema."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._optimizer = WhatIfOptimizer(
            AnalyticalCostSource(CostModel(schema))
        )
        self._costs: dict[tuple[int, frozenset], float] = {}

    @property
    def schema(self) -> Schema:
        return self._schema

    def cost(self, workload: Workload, indexes) -> float:
        """Reference ``F(I)`` of ``indexes`` on ``workload``.

        ``WhatIfOptimizer.workload_cost`` with each query offered only
        its own table's indexes: the others are never applicable and
        cost no maintenance, so the sum is the same, term by term.
        """
        key = (id(workload), frozenset(indexes))
        if key not in self._costs:
            by_table: dict[str, list[Index]] = defaultdict(list)
            for index in key[1]:
                by_table[index.table_name].append(index)
            self._costs[key] = sum(
                query.frequency * self._optimizer.configuration_cost(
                    query, by_table.get(query.table_name, ())
                )
                for query in workload
            )
        return self._costs[key]

    def check(
        self,
        workload: Workload,
        indexes,
        *,
        total_cost: float,
        memory: float,
        budget: float,
    ) -> float:
        """Raise :class:`CheckError` unless the recommendation fits its
        budget and its cost matches the reference; returns its cost
        relative to the no-index cost."""
        indexes = frozenset(indexes)
        actual_memory = configuration_memory(self._schema, indexes)
        if actual_memory != memory:
            raise CheckError(
                f"reported memory {memory} but the indexes take "
                f"{actual_memory} bytes"
            )
        if actual_memory > budget:
            raise CheckError(
                f"memory {actual_memory} exceeds the budget {budget}"
            )
        reference = self.cost(workload, indexes)
        if abs(total_cost - reference) > COST_TOLERANCE * abs(reference):
            raise CheckError(
                f"total_cost {total_cost!r} differs from the reference "
                f"{reference!r} by more than {COST_TOLERANCE:g} relative"
            )
        return total_cost / self.cost(workload, ())
