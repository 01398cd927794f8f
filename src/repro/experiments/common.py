"""Shared plumbing of the experiment harnesses.

Every experiment follows the same pattern: build a workload, wire a cost
source and what-if facade, sweep budgets for a set of selection
algorithms, and print the series/rows the corresponding paper artifact
reports.  This module holds the pieces they share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cophy.solver import CoPhyAlgorithm
from repro.core.extend import ExtendAlgorithm
from repro.core.frontier import Frontier, FrontierPoint
from repro.core.steps import SelectionResult
from repro.core.sweep import budget_grid, sweep_select
from repro.cost.kernel import VectorizedCostSource
from repro.cost.whatif import WhatIfOptimizer
from repro.exceptions import SolverTimeoutError
from repro.indexes.index import Index
from repro.indexes.memory import relative_budget
from repro.telemetry import Telemetry
from repro.workload.query import Workload

__all__ = [
    "BudgetSweepSeries",
    "analytic_optimizer",
    "sweep_extend",
    "sweep_cophy",
    "sweep_heuristic",
    "budget_grid",
]


@dataclass
class BudgetSweepSeries:
    """One plotted series: algorithm performance across budget shares."""

    name: str
    points: list[tuple[float, float]] = field(default_factory=list)
    runtimes: list[float] = field(default_factory=list)
    whatif_calls: int = 0
    point_whatif_calls: list[int] = field(default_factory=list)
    """Backend what-if calls attributed to each point, parallel to
    ``points`` (pairs an earlier point priced are facade cache hits)."""
    notes: list[str] = field(default_factory=list)

    def add(
        self,
        w: float,
        cost: float,
        runtime: float,
        whatif_calls: int = 0,
    ) -> None:
        """Record one (budget share, cost) sample."""
        self.points.append((w, cost))
        self.runtimes.append(runtime)
        self.point_whatif_calls.append(whatif_calls)

    @property
    def frontier(self) -> Frontier:
        """The series as a frontier over budget shares."""
        return Frontier(
            FrontierPoint(memory=w, cost=cost) for w, cost in self.points
        )

    @property
    def total_runtime(self) -> float:
        """Summed solve time across the sweep."""
        return sum(self.runtimes)


def analytic_optimizer(workload: Workload) -> WhatIfOptimizer:
    """A what-if facade over the Appendix B cost model, priced by the
    compiled batch kernel of :mod:`repro.cost.kernel`."""
    return WhatIfOptimizer(VectorizedCostSource(workload.schema))


def _progress(verbose: bool, message: str) -> None:
    if verbose:
        print(f"  [{message}]", flush=True)


def _series_cost(
    result: SelectionResult,
    cost_fn: Callable[[SelectionResult], float] | None,
) -> float:
    """The cost a sweep records: model cost, or a caller-supplied
    evaluation (e.g. Fig. 5's measured end-to-end execution)."""
    if cost_fn is None:
        return result.total_cost
    return cost_fn(result)


def sweep_extend(
    workload: Workload,
    optimizer: WhatIfOptimizer,
    budget_shares: Sequence[float],
    *,
    name: str = "H6",
    algorithm_factory: Callable[[WhatIfOptimizer], ExtendAlgorithm]
    | None = None,
    cost_fn: Callable[[SelectionResult], float] | None = None,
    telemetry: Telemetry | None = None,
    verbose: bool = False,
) -> BudgetSweepSeries:
    """Run Extend once per budget share (:func:`sweep_select`).

    Every run prices through ``optimizer``, so a pair one point priced
    is a cache hit for the later ones.  All timing flows through the
    shared telemetry tracer; pass an enabled session via ``telemetry``
    to keep the spans (and the per-step event log), otherwise a
    throwaway session is used.
    """
    telemetry = telemetry or Telemetry()
    series = BudgetSweepSeries(name=name)
    calls_before = optimizer.calls

    def on_point(point):
        _progress(
            verbose,
            f"{name} w={point.budget_share:g}: "
            f"cost={point.result.total_cost:.4g} "
            f"in {point.result.runtime_seconds:.2f}s "
            f"(+{point.whatif_calls} calls)",
        )

    with telemetry.tracer.span("sweep.extend", series=name):
        sweep = sweep_select(
            workload,
            optimizer,
            budget_shares,
            algorithm_factory=algorithm_factory,
            telemetry=telemetry,
            point_callback=on_point,
        )
    for point in sweep.points:
        series.add(
            point.budget_share,
            _series_cost(point.result, cost_fn),
            point.result.runtime_seconds,
            whatif_calls=point.whatif_calls,
        )
    series.whatif_calls = optimizer.calls - calls_before
    return series


def sweep_cophy(
    workload: Workload,
    optimizer: WhatIfOptimizer,
    budget_shares: Sequence[float],
    candidates: list[Index],
    *,
    name: str,
    mip_gap: float = 0.05,
    time_limit: float | None = 60.0,
    cost_fn: Callable[[SelectionResult], float] | None = None,
    telemetry: Telemetry | None = None,
    verbose: bool = False,
) -> BudgetSweepSeries:
    """Run CoPhy once per budget share over a fixed candidate set.

    Budgets where the solver DNFs are recorded as ``inf`` cost with a
    note, mirroring Table I's DNF entries; the DNF runtime is read from
    the tracer span that wrapped the attempt.
    """
    telemetry = telemetry or Telemetry()
    series = BudgetSweepSeries(name=name)
    algorithm = CoPhyAlgorithm(
        optimizer,
        mip_gap=mip_gap,
        time_limit=time_limit,
        telemetry=telemetry,
    )
    calls_before = optimizer.calls
    with telemetry.tracer.span("sweep.cophy", series=name):
        for w in budget_shares:
            budget = relative_budget(workload.schema, w)
            point_calls = optimizer.calls
            with telemetry.tracer.span("sweep.point", w=w) as point_span:
                try:
                    result = algorithm.select(workload, budget, candidates)
                except SolverTimeoutError:
                    result = None
            point_calls = optimizer.calls - point_calls
            if result is None:
                series.add(
                    w,
                    float("inf"),
                    point_span.duration_seconds,
                    whatif_calls=point_calls,
                )
                series.notes.append(f"w={w:g}: DNF (time limit)")
                _progress(verbose, f"{name} w={w:g}: DNF")
                continue
            cost = _series_cost(result, cost_fn)
            series.add(
                w, cost, result.runtime_seconds, whatif_calls=point_calls
            )
            if result.timed_out:
                series.notes.append(
                    f"w={w:g}: time limit hit, incumbent returned"
                )
            _progress(
                verbose,
                f"{name} w={w:g}: cost={cost:.4g} "
                f"solve={result.runtime_seconds:.1f}s"
                + (" (timed out)" if result.timed_out else ""),
            )
    series.whatif_calls = optimizer.calls - calls_before
    return series


def sweep_heuristic(
    workload: Workload,
    budget_shares: Sequence[float],
    candidates: list[Index],
    heuristic,
    *,
    cost_fn: Callable[[SelectionResult], float] | None = None,
    telemetry: Telemetry | None = None,
) -> BudgetSweepSeries:
    """Run a :class:`RankingHeuristic` once per budget share."""
    telemetry = telemetry or Telemetry()
    series = BudgetSweepSeries(name=heuristic.name)
    calls_before = heuristic.optimizer.calls
    with telemetry.tracer.span("sweep.heuristic", series=heuristic.name):
        for w in budget_shares:
            budget = relative_budget(workload.schema, w)
            point_calls = heuristic.optimizer.calls
            with telemetry.tracer.span("sweep.point", w=w):
                result = heuristic.select(workload, budget, candidates)
                cost = _series_cost(result, cost_fn)
            series.add(
                w,
                cost,
                result.runtime_seconds,
                whatif_calls=heuristic.optimizer.calls - point_calls,
            )
    series.whatif_calls = heuristic.optimizer.calls - calls_before
    return series
