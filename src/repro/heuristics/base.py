"""Shared machinery of the rule-based selection heuristics (Definition 1).

All of H1–H5 share the same skeleton: rank a given candidate set by some
score, then greedily pick candidates in rank order while the memory
budget permits (candidates that no longer fit are skipped, later smaller
ones may still be taken).  They differ only in the ranking — and in
whether ranking needs what-if costs (H4/H5) or pure workload statistics
(H1–H3).

The final configuration is always priced with the shared what-if facade
under the one-index-per-query semantics, so results are comparable across
algorithms regardless of how a heuristic ranked internally.
"""

from __future__ import annotations

import abc
import time
from typing import Sequence

from repro.core.steps import (
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    SelectionResult,
)
from repro.cost.whatif import WhatIfOptimizer
from repro.exceptions import BudgetError
from repro.indexes.configuration import IndexConfiguration
from repro.indexes.index import Index
from repro.indexes.memory import index_memory
from repro.resilience.deadline import Deadline
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workload.query import Workload

__all__ = ["RankingHeuristic"]


class RankingHeuristic(abc.ABC):
    """Base class: rank candidates, then greedily fill the budget."""

    name = "ranking"

    def __init__(
        self,
        optimizer: WhatIfOptimizer,
        *,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        self._optimizer = optimizer
        self._telemetry = telemetry

    @property
    def optimizer(self) -> WhatIfOptimizer:
        """The what-if facade used for final pricing (and by H4/H5 for
        ranking)."""
        return self._optimizer

    @abc.abstractmethod
    def rank(
        self, workload: Workload, candidates: Sequence[Index]
    ) -> list[Index]:
        """Return the candidates in selection (best-first) order.

        Implementations may also *filter* (e.g. H4's skyline variant
        removes dominated candidates).
        """

    def select(
        self,
        workload: Workload,
        budget: float,
        candidates: Sequence[Index],
        *,
        deadline: Deadline | None = None,
    ) -> SelectionResult:
        """Greedy fill: take ranked candidates while the budget allows.

        With a ``deadline``, the fill stops taking candidates once the
        wall clock expires and the (feasible, fully priced) partial
        selection is returned with ``status="degraded"``.
        """
        if budget < 0:
            raise BudgetError(f"budget must be >= 0, got {budget}")
        deadline = deadline or Deadline.none()
        status = STATUS_COMPLETED
        telemetry = self._telemetry
        tracer = telemetry.tracer
        started = time.perf_counter()
        calls_before = self._optimizer.calls
        schema = workload.schema

        with tracer.span(
            "heuristic.select",
            algorithm=self.name,
            candidates=len(candidates),
        ) as run_span:
            with tracer.span("heuristic.rank"):
                ranked = self.rank(workload, list(candidates))
            if deadline.expired:
                status = STATUS_DEGRADED

            with tracer.span("heuristic.fill"):
                chosen: list[Index] = []
                used = 0
                for candidate in ranked:
                    if deadline.expired:
                        status = STATUS_DEGRADED
                        break
                    footprint = index_memory(schema, candidate)
                    if used + footprint > budget:
                        continue
                    chosen.append(candidate)
                    used += footprint

            configuration = IndexConfiguration(chosen)
            total_cost = self._optimizer.workload_cost(
                workload, configuration
            )
            if telemetry.enabled:
                run_span.annotate("selected", len(chosen))
                run_span.annotate("status", status)
                telemetry.metrics.counter(
                    f"heuristic.{self.name}.selected"
                ).increment(len(chosen))
                telemetry.metrics.publish(
                    "whatif", self._optimizer.statistics
                )
        return SelectionResult(
            algorithm=self.name,
            configuration=configuration,
            total_cost=total_cost,
            memory=used,
            budget=budget,
            runtime_seconds=time.perf_counter() - started,
            whatif_calls=self._optimizer.calls - calls_before,
            status=status,
        )
