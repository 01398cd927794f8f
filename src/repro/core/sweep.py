"""Multi-budget frontier sweep engine: price once, answer every budget.

Every paper artifact is a *frontier*: the same workload swept over ~10
budget shares.  Running Extend per budget from scratch pays the full
what-if bill once per point, although the budget only gates which steps
are *admissible* — the candidate pricing underneath is budget-invariant.

:func:`sweep_select` exploits that: it runs the requested budget shares
**descending**, threading one shared
:class:`~repro.core.evaluation.WarmBenefitStore` through every per-budget
:class:`~repro.core.extend.ExtendAlgorithm` run.  A candidate extension
priced at ``w = 1.0`` is served from the store at ``w = 0.2`` instead of
being re-priced, so the whole frontier costs roughly one run's worth of
backend calls plus cheap re-selection.  The store's invariant (stored
columns are exactly what cold pricing would return, over deterministic
backends) guarantees every point's step trace stays **bit-identical** to
its standalone run — shared vs. naive is a pure performance knob.

The engine degrades instead of crashing: an expired deadline or (with
``on_error="partial"``) a mid-sweep backend failure truncates the sweep
to the points already answered, tagged ``partial`` with the skipped
shares recorded — a partial frontier beats no frontier.

Per-sweep counters surface as the ``sweep.*`` telemetry gauges via
:meth:`SweepStatistics.publish`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.extend import ExtendAlgorithm
from repro.core.frontier import Frontier, FrontierPoint
from repro.core.steps import (
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    SelectionResult,
)
from repro.cost.whatif import WhatIfOptimizer
from repro.core.evaluation import EvaluationConfig, WarmBenefitStore
from repro.exceptions import ExperimentError
from repro.indexes.memory import relative_budget
from repro.resilience.deadline import Deadline
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workload.query import Workload

__all__ = [
    "SweepPoint",
    "SweepResult",
    "SweepStatistics",
    "normalize_budget_shares",
    "parse_budget_sweep",
    "sweep_select",
]


def normalize_budget_shares(
    shares: Sequence[float],
) -> tuple[float, ...]:
    """Validate user-supplied budget shares for a sweep.

    Strict by design — these are *request inputs* (CLI ``--budget-sweep``,
    the service ``sweep`` op, :meth:`IndexAdvisor.recommend_sweep`), not
    the figure harnesses' anchor grids: every share must be a real number
    in ``(0, 1]`` and no share may repeat (a duplicate would silently
    produce repeated frontier points).  Returns the shares as floats in
    the caller's order; raises :class:`~repro.exceptions.ExperimentError`
    otherwise.
    """
    if isinstance(shares, (str, bytes)):
        raise ExperimentError(
            "budget_shares must be a sequence of numbers, got a string "
            f"({shares!r}); use parse_budget_sweep for 'low:high:steps'"
        )
    values = list(shares)
    if not values:
        raise ExperimentError("budget sweep needs at least one share")
    normalized: list[float] = []
    seen: set[float] = set()
    for share in values:
        if isinstance(share, bool) or not isinstance(
            share, (int, float)
        ):
            raise ExperimentError(
                f"budget shares must be numbers, got {share!r}"
            )
        value = float(share)
        if math.isnan(value) or not value > 0:
            raise ExperimentError(
                f"budget shares must be > 0, got {share!r}"
            )
        if value > 1:
            raise ExperimentError(
                f"budget shares are relative to the all-singles "
                f"footprint (Eq. 10) and must be <= 1, got {share!r}"
            )
        if value in seen:
            raise ExperimentError(
                f"duplicate budget share {share!r}; each share yields "
                "one frontier point — deduplicate the sweep input"
            )
        seen.add(value)
        normalized.append(value)
    return tuple(normalized)


def parse_budget_sweep(text: str) -> tuple[float, ...]:
    """Parse a ``low:high:steps`` sweep spec into budget shares.

    ``"0.1:1.0:10"`` means 10 evenly spaced shares from 0.1 to 1.0
    inclusive.  The endpoints must satisfy ``0 < low < high <= 1`` and
    ``steps >= 2``; the result passes :func:`normalize_budget_shares`.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ExperimentError(
            f"budget sweep spec must be 'low:high:steps', got {text!r}"
        )
    try:
        low, high = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ExperimentError(
            f"budget sweep spec must be 'low:high:steps' with numeric "
            f"bounds and an integer step count, got {text!r}"
        ) from None
    if steps < 2:
        raise ExperimentError(
            f"budget sweep needs >= 2 steps, got {steps}"
        )
    if not 0 < low < high <= 1:
        raise ExperimentError(
            f"budget sweep range must satisfy 0 < low < high <= 1, "
            f"got [{low}, {high}]"
        )
    width = (high - low) / (steps - 1)
    return normalize_budget_shares(
        [low + width * step for step in range(steps)]
    )


@dataclass(frozen=True)
class SweepPoint:
    """One answered budget point of a sweep."""

    budget_share: float
    budget_bytes: float
    result: SelectionResult
    whatif_calls: int
    """Backend what-if calls this point added (facade cache misses
    during this point's selection — *not* the standalone-run count)."""
    execution_order: int
    """0-based position in the engine's descending execution order (the
    point with the largest share executes first and pays the pricing)."""

    @property
    def status(self) -> str:
        """The point's selection status (completed/degraded)."""
        return self.result.status


@dataclass
class SweepStatistics:
    """Counters of one sweep run (the ``sweep.*`` telemetry gauges)."""

    points: int = 0
    """Budget shares requested."""
    completed_points: int = 0
    """Budget shares actually answered (== ``points`` unless partial)."""
    backend_calls: int = 0
    """Backend what-if calls across the whole sweep."""
    reprice_count: int = 0
    """Backend calls made *after* the first executed point — pricing
    the shared store could not serve (0 = perfect reuse)."""
    warm_hits: int = 0
    warm_misses: int = 0
    partial: bool = False

    @property
    def reuse_rate(self) -> float:
        """Share of move pricings served by the shared warm store."""
        total = self.warm_hits + self.warm_misses
        return self.warm_hits / total if total else 0.0

    def publish(self, registry, prefix: str = "sweep") -> None:
        """Bridge the counters into a telemetry registry as gauges."""
        registry.gauge(f"{prefix}.points").set(self.points)
        registry.gauge(f"{prefix}.completed_points").set(
            self.completed_points
        )
        registry.gauge(f"{prefix}.backend_calls").set(
            self.backend_calls
        )
        registry.gauge(f"{prefix}.reprice_count").set(
            self.reprice_count
        )
        registry.gauge(f"{prefix}.warm_hits").set(self.warm_hits)
        registry.gauge(f"{prefix}.warm_misses").set(self.warm_misses)
        registry.gauge(f"{prefix}.reuse_rate").set(self.reuse_rate)
        registry.gauge(f"{prefix}.partial").set(
            1 if self.partial else 0
        )


@dataclass(frozen=True)
class SweepResult:
    """The outcome of one multi-budget sweep."""

    points: tuple[SweepPoint, ...]
    """Answered points, in the *caller's* share order (execution runs
    descending; see :attr:`SweepPoint.execution_order`)."""
    statistics: SweepStatistics
    partial: bool = False
    """True when the sweep was truncated (deadline or mid-sweep
    failure); :attr:`skipped_shares` lists the unanswered budgets."""
    skipped_shares: tuple[float, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        """Degraded when partial or any point degraded."""
        if self.partial or any(
            point.status == STATUS_DEGRADED for point in self.points
        ):
            return STATUS_DEGRADED
        return STATUS_COMPLETED

    @property
    def results(self) -> tuple[SelectionResult, ...]:
        """Per-point selection results, in caller share order."""
        return tuple(point.result for point in self.points)

    @property
    def frontier(self) -> Frontier:
        """The answered points as a cost/budget-share frontier."""
        return Frontier(
            FrontierPoint(
                memory=point.budget_share, cost=point.result.total_cost
            )
            for point in self.points
        )

    def point_for(self, budget_share: float) -> SweepPoint | None:
        """The answered point of one share (``None`` when skipped)."""
        for point in self.points:
            if point.budget_share == budget_share:
                return point
        return None


def _check_sweep_shares(
    budget_shares: Sequence[float],
) -> tuple[float, ...]:
    """Engine-level share validation.

    Laxer than :func:`normalize_budget_shares` in exactly one way: a
    share of 0.0 is allowed, because the figure harnesses anchor their
    grids at ``w = 0`` (the no-index frontier point).  Duplicates and
    negatives are still rejected.
    """
    values = [float(share) for share in budget_shares]
    if not values:
        raise ExperimentError("budget sweep needs at least one share")
    seen: set[float] = set()
    for share in values:
        if math.isnan(share) or share < 0:
            raise ExperimentError(
                f"budget shares must be >= 0, got {share!r}"
            )
        if share > 1:
            raise ExperimentError(
                f"budget shares are relative to the all-singles "
                f"footprint (Eq. 10) and must be <= 1, got {share!r}"
            )
        if share in seen:
            raise ExperimentError(
                f"duplicate budget share {share!r}; each share yields "
                "one frontier point — deduplicate the sweep input"
            )
        seen.add(share)
    return tuple(values)


def sweep_select(
    workload: Workload,
    optimizer: WhatIfOptimizer,
    budget_shares: Sequence[float],
    *,
    algorithm_factory: Callable[[WhatIfOptimizer], ExtendAlgorithm]
    | None = None,
    telemetry: Telemetry = NULL_TELEMETRY,
    warm_store: WarmBenefitStore | None = None,
    evaluation: EvaluationConfig | None = None,
    deadline: Deadline | None = None,
    on_error: str = "raise",
    point_callback: Callable[[SweepPoint], None] | None = None,
) -> SweepResult:
    """Answer every budget share with one shared pricing pass.

    Shares execute in **descending** order so the first (largest) point
    populates the shared ``warm_store`` with nearly every cost column
    the smaller budgets will need; each later point re-selects against
    the store and only prices candidates whose optimistic bound first
    becomes competitive under its tighter admissibility gate.  The
    returned :attr:`SweepResult.points` are re-ordered back to the
    caller's share order, each bit-identical (step trace, costs,
    configuration) to a standalone per-budget run.

    Parameters
    ----------
    algorithm_factory:
        Builds the per-point algorithm (ablation variants etc.);
        defaults to a plain :class:`ExtendAlgorithm`.  Factories whose
        product offers ``with_warm_store`` are transparently attached
        to the shared store; others still run correctly, just without
        cross-point pricing reuse.
    warm_store:
        The shared store; a private one is created when ``None``.  Pass
        a resident store (the service's per-registration one) to keep
        the sweep warm across *requests* as well as across points.
    deadline:
        Sweep-wide wall-clock budget.  The point running at expiry
        returns degraded best-so-far (Extend's usual contract); points
        not yet started are skipped and the sweep comes back
        ``partial``.
    on_error:
        ``"raise"`` (default) propagates a mid-sweep failure;
        ``"partial"`` degrades to the points already answered when at
        least one exists (the service's worker-death posture) and
        re-raises otherwise.
    point_callback:
        Called with each :class:`SweepPoint` as it completes, in
        execution (descending) order — the service streams these as
        per-point events.
    """
    if on_error not in ("raise", "partial"):
        raise ExperimentError(
            f"on_error must be 'raise' or 'partial', got {on_error!r}"
        )
    shares = _check_sweep_shares(budget_shares)
    deadline = deadline or Deadline.none()
    store = warm_store if warm_store is not None else WarmBenefitStore()
    statistics = SweepStatistics(points=len(shares))
    execution_order = sorted(shares, reverse=True)
    answered: dict[float, SweepPoint] = {}
    notes: list[str] = []
    partial = False

    with telemetry.tracer.span(
        "sweep.select", points=len(shares)
    ) as sweep_span:
        for position, share in enumerate(execution_order):
            if deadline.expired and position > 0:
                partial = True
                notes.append(
                    f"deadline expired after {position} of "
                    f"{len(shares)} points"
                )
                break
            budget = relative_budget(workload.schema, share)
            algorithm = _point_algorithm(
                optimizer,
                algorithm_factory,
                store,
                telemetry,
                evaluation,
            )
            calls_before = optimizer.calls
            try:
                with telemetry.tracer.span("sweep.point", w=share):
                    result = algorithm.select(
                        workload, budget, deadline=deadline
                    )
            except Exception as error:
                if on_error == "partial" and answered:
                    partial = True
                    notes.append(
                        f"point w={share:g} failed "
                        f"({type(error).__name__}: {error}); "
                        "returning the partial frontier"
                    )
                    break
                raise
            calls = optimizer.calls - calls_before
            statistics.backend_calls += calls
            if position > 0:
                statistics.reprice_count += calls
            evaluation_statistics = getattr(
                algorithm, "last_evaluation_statistics", None
            )
            if evaluation_statistics is not None:
                statistics.warm_hits += evaluation_statistics.warm_hits
                statistics.warm_misses += (
                    evaluation_statistics.warm_misses
                )
            point = SweepPoint(
                budget_share=share,
                budget_bytes=budget,
                result=result,
                whatif_calls=calls,
                execution_order=position,
            )
            answered[share] = point
            statistics.completed_points += 1
            if point_callback is not None:
                point_callback(point)
        skipped = tuple(
            share for share in shares if share not in answered
        )
        if skipped and not partial:
            partial = True
        statistics.partial = partial
        if telemetry.enabled:
            sweep_span.annotate(
                "completed", statistics.completed_points
            )
            sweep_span.annotate("partial", partial)
            statistics.publish(telemetry.metrics)
    return SweepResult(
        points=tuple(
            answered[share] for share in shares if share in answered
        ),
        statistics=statistics,
        partial=partial,
        skipped_shares=skipped,
        notes=tuple(notes),
    )


def _point_algorithm(
    optimizer: WhatIfOptimizer,
    algorithm_factory,
    store: WarmBenefitStore,
    telemetry: Telemetry,
    evaluation: EvaluationConfig | None,
):
    """One budget point's algorithm, attached to the shared store."""
    if algorithm_factory is not None:
        algorithm = algorithm_factory(optimizer)
        attach = getattr(algorithm, "with_warm_store", None)
        if attach is not None:
            algorithm = attach(store)
        return algorithm
    return ExtendAlgorithm(
        optimizer,
        telemetry=telemetry,
        evaluation=evaluation,
        warm_store=store,
    )
