"""Multi-budget frontier sweeps: one Extend run per budget share.

Every paper artifact is a *frontier*: the same workload swept over ~10
budget shares.  :func:`sweep_select` is a plain loop — one
:class:`~repro.core.extend.ExtendAlgorithm` run per share, in the
caller's order, over the caller's what-if facade.  The budget only
gates which steps are admissible; the candidate pricing underneath is
budget-invariant, so every pair one point priced is a cache hit for the
next, and a repeat sweep over the same facade makes no backend call at
all.  On an unbounded facade the sweep's total backend calls are the
same in any share order, and every point is **bit-identical** to its
standalone run (the facade returns exactly what the backend would).

The loop degrades instead of crashing: an expired deadline or (with
``on_error="partial"``) a mid-sweep backend failure truncates the sweep
to the points already answered, tagged ``partial`` with the skipped
shares recorded — a partial frontier beats no frontier.

Per-sweep counters surface as the ``sweep.*`` telemetry gauges via
:meth:`SweepStatistics.publish`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.extend import ExtendAlgorithm
from repro.core.frontier import Frontier, FrontierPoint
from repro.core.steps import (
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    SelectionResult,
)
from repro.cost.whatif import WhatIfOptimizer
from repro.core.evaluation import EvaluationConfig
from repro.exceptions import ExperimentError
from repro.indexes.memory import relative_budget
from repro.resilience.deadline import Deadline
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workload.query import Workload

__all__ = [
    "MAX_SWEEP_POINTS",
    "SweepPoint",
    "SweepResult",
    "SweepStatistics",
    "budget_grid",
    "normalize_budget_shares",
    "parse_budget_sweep",
    "sweep_select",
]

MAX_SWEEP_POINTS = 1_000
"""The most budget points one sweep request may ask for: each point is
one Extend run, so an unbounded count is unbounded work and memory."""


def normalize_budget_shares(
    shares: Sequence[float],
) -> tuple[float, ...]:
    """Validate user-supplied budget shares for a sweep.

    Strict by design — these are *request inputs* (CLI ``--budget-sweep``,
    the service ``sweep`` op, :meth:`IndexAdvisor.recommend_sweep`), not
    the figure harnesses' anchor grids: every share must be a real number
    in ``(0, 1]``, no share may repeat (a duplicate would silently
    produce repeated frontier points), and there may be at most
    :data:`MAX_SWEEP_POINTS` of them.  Returns the shares as floats in
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
    if len(values) > MAX_SWEEP_POINTS:
        raise ExperimentError(
            f"budget sweep has {len(values)} shares; at most "
            f"{MAX_SWEEP_POINTS} are allowed"
        )
    normalized: list[float] = []
    seen: set[float] = set()
    for share in values:
        if isinstance(share, bool) or not isinstance(
            share, (int, float)
        ):
            raise ExperimentError(
                f"budget shares must be numbers, got {share!r}"
            )
        # NaN fails every comparison; an int too large for a float
        # fails the second test before the conversion.
        if not share > 0:
            raise ExperimentError(
                f"budget shares must be > 0, got {share!r}"
            )
        if share > 1:
            raise ExperimentError(
                f"budget shares are relative to the all-singles "
                f"footprint (Eq. 10) and must be <= 1, got {share!r}"
            )
        value = float(share)
        if value in seen:
            raise ExperimentError(
                f"duplicate budget share {share!r}; each share yields "
                "one frontier point — deduplicate the sweep input"
            )
        seen.add(value)
        normalized.append(value)
    return tuple(normalized)


def budget_grid(low: float, high: float, steps: int) -> list[float]:
    """``steps`` evenly spaced budget shares from ``low`` to ``high``.

    Budget shares are relative to the all-singles footprint (Eq. 10),
    so the grid must stay inside ``0 <= low < high <= 1``; the figure
    harnesses anchor at ``low = 0`` (the no-index point).  Interior
    points are ``low + width * step``; the last point is ``high``
    itself, which that formula can overshoot by an ulp
    (``0.08 + 0.30666666666666664 * 3`` is ``1.0000000000000002``).
    """
    if steps < 2:
        raise ExperimentError(f"need >= 2 budget steps, got {steps}")
    if not 0 <= low < high <= 1:
        raise ExperimentError(
            f"invalid budget range [{low}, {high}]; shares are "
            "relative to the all-singles footprint and must satisfy "
            "0 <= low < high <= 1"
        )
    width = (high - low) / (steps - 1)
    return [low + width * step for step in range(steps - 1)] + [high]


def parse_budget_sweep(text: str) -> tuple[float, ...]:
    """Parse a ``low:high:steps`` sweep spec into budget shares.

    ``"0.1:1.0:10"`` means 10 evenly spaced shares from 0.1 to 1.0
    inclusive (:func:`budget_grid`).  The endpoints must satisfy
    ``0 < low < high <= 1`` and ``2 <= steps <= MAX_SWEEP_POINTS``
    (checked before the grid is built); the result passes
    :func:`normalize_budget_shares`.
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
    if steps > MAX_SWEEP_POINTS:
        raise ExperimentError(
            f"budget sweep asks for {steps} steps; at most "
            f"{MAX_SWEEP_POINTS} are allowed"
        )
    if not 0 < low < high <= 1:
        raise ExperimentError(
            f"budget sweep range must satisfy 0 < low < high <= 1, "
            f"got [{low}, {high}]"
        )
    return normalize_budget_shares(budget_grid(low, high, steps))


@dataclass(frozen=True)
class SweepPoint:
    """One answered budget point of a sweep."""

    budget_share: float
    budget_bytes: float
    result: SelectionResult
    whatif_calls: int
    """Backend what-if calls this point added (facade cache misses
    during this point's selection — *not* the standalone-run count)."""

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
    partial: bool = False


@dataclass(frozen=True)
class SweepResult:
    """The outcome of one multi-budget sweep."""

    points: tuple[SweepPoint, ...]
    """Answered points, in the caller's share order (the order they
    ran in)."""
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
    evaluation: EvaluationConfig | None = None,
    deadline: Deadline | None = None,
    on_error: str = "raise",
    point_callback: Callable[[SweepPoint], None] | None = None,
) -> SweepResult:
    """Answer every budget share with one Extend run over ``optimizer``.

    Shares run in the caller's order, one run each, all over the same
    what-if facade: a pair priced for one point is a cache hit for every
    later point (and for later sweeps or requests over that facade).
    Each point is bit-identical (step trace, costs, configuration) to a
    standalone run at its budget.

    Parameters
    ----------
    algorithm_factory:
        Builds the per-point algorithm (ablation variants etc.);
        defaults to a plain :class:`ExtendAlgorithm`.
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
        Called with each :class:`SweepPoint` as it completes — the
        service streams these as per-point events.
    """
    if on_error not in ("raise", "partial"):
        raise ExperimentError(
            f"on_error must be 'raise' or 'partial', got {on_error!r}"
        )
    shares = _check_sweep_shares(budget_shares)
    deadline = deadline or Deadline.none()
    statistics = SweepStatistics(points=len(shares))
    answered: list[SweepPoint] = []
    notes: list[str] = []
    partial = False

    with telemetry.tracer.span(
        "sweep.select", points=len(shares)
    ) as sweep_span:
        for position, share in enumerate(shares):
            if deadline.expired and position > 0:
                partial = True
                notes.append(
                    f"deadline expired after {position} of "
                    f"{len(shares)} points"
                )
                break
            budget = relative_budget(workload.schema, share)
            algorithm = (
                algorithm_factory(optimizer)
                if algorithm_factory is not None
                else ExtendAlgorithm(
                    optimizer, telemetry=telemetry, evaluation=evaluation
                )
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
            point = SweepPoint(
                budget_share=share,
                budget_bytes=budget,
                result=result,
                whatif_calls=calls,
            )
            answered.append(point)
            statistics.completed_points += 1
            if point_callback is not None:
                point_callback(point)
        skipped = shares[len(answered):]
        statistics.partial = partial
        if telemetry.enabled:
            sweep_span.annotate(
                "completed", statistics.completed_points
            )
            sweep_span.annotate("partial", partial)
            telemetry.metrics.publish("sweep", statistics)
    return SweepResult(
        points=tuple(answered),
        statistics=statistics,
        partial=partial,
        skipped_shares=skipped,
        notes=tuple(notes),
    )
