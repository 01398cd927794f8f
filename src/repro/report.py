"""Human-readable advisor reports.

Turns a :class:`~repro.core.steps.SelectionResult` into the kind of
report a DBA expects from an index advisor: per-index benefit
attribution, the queries each index serves, memory breakdown, and the
residual hot spots (expensive queries no selected index covers).  The
report is plain text (markdown-flavoured) so it can be logged, diffed,
or pasted into a ticket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.steps import SelectionResult
from repro.cost.whatif import WhatIfOptimizer, WhatIfStatistics, WriteLoad
from repro.exceptions import ExperimentError
from repro.indexes.index import Index
from repro.indexes.memory import index_memory
from repro.workload.query import Query, Workload

__all__ = ["IndexReport", "AdvisorReport", "build_report"]


@dataclass(frozen=True)
class IndexReport:
    """Attribution for one selected index."""

    index: Index
    memory: int
    marginal_benefit: float
    """Workload-cost increase if only this index were dropped: the
    weighted regret of the queries it serves, each falling back to its
    second-best option, minus the maintenance load it stops costing."""

    serves: tuple[int, ...]
    """Query ids whose best plan uses this index."""

    maintenance_load: float
    """Frequency-weighted maintenance the index costs write queries."""


@dataclass(frozen=True)
class AdvisorReport:
    """Full report for one selection."""

    result: SelectionResult
    baseline_cost: float
    indexes: tuple[IndexReport, ...]
    residual_queries: tuple[tuple[Query, float], ...]
    """The most expensive queries under the selection (query, cost)."""

    whatif_statistics: WhatIfStatistics | None = None
    """What-if facade counters (backend calls, cache hits) accumulated
    while computing this selection; ``None`` when the caller did not
    capture them."""

    @property
    def improvement_factor(self) -> float:
        """No-index cost divided by selected cost."""
        return self.baseline_cost / max(self.result.total_cost, 1e-12)

    def render(self, workload: Workload) -> str:
        """Render the report as markdown-flavoured text."""
        schema = workload.schema
        lines = [
            f"# Index advisor report — {self.result.algorithm}",
            "",
            f"* workload: {workload.query_count} query templates, "
            f"{schema.attribute_count} attributes, "
            f"{schema.table_count} tables",
            f"* cost without indexes: {self.baseline_cost:.6g}",
            f"* cost with selection:  {self.result.total_cost:.6g} "
            f"({self.improvement_factor:.1f}x better)",
            f"* memory: {self.result.memory:,} of "
            f"{self.result.budget:,.0f} budget bytes",
            f"* what-if calls: {self.result.whatif_calls}, solve time: "
            f"{self.result.runtime_seconds:.3f}s",
        ]
        if self.whatif_statistics is not None:
            statistics = self.whatif_statistics
            lines.append(
                f"* what-if cache: {statistics.cache_hits:,} hits / "
                f"{statistics.total_requests:,} requests "
                f"({statistics.hit_rate:.1%} hit rate, "
                f"{statistics.calls:,} backend calls)"
            )
        lines += [
            "",
            "## Selected indexes (by marginal benefit)",
            "",
        ]
        for entry in self.indexes:
            serves = (
                ", ".join(f"q{query_id}" for query_id in entry.serves)
                or "-"
            )
            lines.append(
                f"* `{entry.index.label(schema)}` — marginal benefit "
                f"{entry.marginal_benefit:.4g}, "
                f"{entry.memory:,} bytes, serves: {serves}"
                + (
                    f", write maintenance {entry.maintenance_load:.4g}"
                    if entry.maintenance_load
                    else ""
                )
            )
        if self.residual_queries:
            lines += ["", "## Remaining hot spots", ""]
            for query, cost in self.residual_queries:
                names = ", ".join(
                    sorted(
                        schema.attribute(attribute_id).name
                        for attribute_id in query.attributes
                    )
                )
                lines.append(
                    f"* q{query.query_id} {query.table_name}({names}) — "
                    f"weighted cost {cost:.4g}"
                )
        return "\n".join(lines)


def build_report(
    workload: Workload,
    optimizer: WhatIfOptimizer,
    result: SelectionResult,
    *,
    hot_spot_count: int = 5,
    whatif_statistics: WhatIfStatistics | None = None,
) -> AdvisorReport:
    """Compute the full attribution report for a selection.

    ``marginal_benefit`` of an index is the workload-cost increase if
    only that index were dropped — the in-context value that accounts
    for index interaction (an index fully shadowed by another one shows
    a marginal benefit near zero even if it looked great in isolation).
    Each query is served by at most one index (Eqs. 5–6), so it is
    computed in one pass over the queries: every query the index serves
    falls back to its second-best option (another applicable index or
    the sequential scan), and the index's maintenance load is saved,
    ``Σ_{q served by k} b_q·(second_q − best_q) − maintenance_load(k)``.

    ``whatif_statistics`` should be the counter *delta* of the selection
    run (see :meth:`~repro.cost.whatif.WhatIfStatistics.since`); it is
    surfaced verbatim in the rendered report's cache line.
    """
    if hot_spot_count < 0:
        raise ExperimentError(
            f"hot_spot_count must be >= 0, got {hot_spot_count}"
        )
    configuration = result.configuration
    baseline = optimizer.workload_cost(workload, ())

    serves: dict[Index, list[int]] = {index: [] for index in configuration}
    regret = dict.fromkeys(configuration, 0.0)
    per_query_cost: dict[int, float] = {}
    for query in workload:
        best_cost = optimizer.sequential_cost(query)
        second_cost = math.inf
        best_index: Index | None = None
        for index in configuration.applicable_to(query):
            cost = optimizer.index_cost(query, index)
            if cost < best_cost:
                best_cost, second_cost = cost, best_cost
                best_index = index
            elif cost < second_cost:
                second_cost = cost
        per_query_cost[query.query_id] = (
            query.frequency
            * optimizer.configuration_cost(query, configuration)
        )
        if best_index is not None:
            serves[best_index].append(query.query_id)
            regret[best_index] += query.frequency * (second_cost - best_cost)

    writes = WriteLoad(workload.queries)
    index_reports = []
    for index in sorted(
        configuration, key=lambda index: (index.table_name, index.attributes)
    ):
        maintenance = writes.load(optimizer, index)
        index_reports.append(
            IndexReport(
                index=index,
                memory=index_memory(workload.schema, index),
                marginal_benefit=regret[index] - maintenance,
                serves=tuple(serves[index]),
                maintenance_load=maintenance,
            )
        )
    index_reports.sort(key=lambda entry: -entry.marginal_benefit)

    residual = sorted(
        (
            (workload.query(query_id), cost)
            for query_id, cost in per_query_cost.items()
        ),
        key=lambda entry: -entry[1],
    )[:hot_spot_count]

    return AdvisorReport(
        result=result,
        baseline_cost=baseline,
        indexes=tuple(index_reports),
        residual_queries=tuple(residual),
        whatif_statistics=whatif_statistics,
    )
