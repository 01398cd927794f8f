"""Request and response models of the advisor service.

A :class:`RecommendRequest` names a *registered* workload instead of
carrying one: registration is what lets the service keep compiled
workload packs and what-if cache entries resident between requests.
The :class:`RecommendResponse` carries the selection result plus the
per-request observability gauges (``service.*``, ``whatif.*`` deltas,
``evaluation.*``, ``resilience.*``) so callers can see queueing,
degradation, and cache reuse without scraping logs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.core.steps import SelectionResult, STATUS_DEGRADED
from repro.core.sweep import SweepResult, normalize_budget_shares
from repro.exceptions import BudgetError, ExperimentError
from repro.indexes.candidates import check_candidate_width

__all__ = [
    "RecommendRequest",
    "RecommendResponse",
    "SweepRequest",
    "SweepResponse",
]


@dataclass(frozen=True)
class RecommendRequest:
    """One recommendation request against a registered workload.

    Parameters
    ----------
    workload:
        Name of a workload previously registered with
        :meth:`~repro.service.AdvisorService.register_workload`.
    budget_share / budget_bytes:
        Exactly one of: the Eq. 10 share ``w``, or absolute bytes.
    algorithm:
        One of the advisor algorithms (``extend`` by default).
    deadline_s:
        Per-request wall-clock budget in seconds (finite, ``>= 0``),
        measured from *submission* (queue wait counts against it).
        ``None`` uses the service default.  On expiry the request
        degrades to a tagged best-so-far result instead of failing.
    candidate_width:
        Maximum index width (a positive integer) of the two-step
        algorithms' candidate set and of the ``extend+swap`` swap pool.
    request_id:
        Caller-chosen correlation id (a string, unique among the
        requests in flight); auto-assigned when ``None``.
    """

    workload: str
    budget_share: float | None = None
    budget_bytes: float | None = None
    algorithm: str = "extend"
    deadline_s: float | None = None
    candidate_width: int = 4
    request_id: str | None = None

    def __post_init__(self) -> None:
        _check_common(self)
        check_candidate_width(self.candidate_width)


def _check_common(request: RecommendRequest | SweepRequest) -> None:
    """The checks every request shape shares."""
    if not request.workload:
        raise ExperimentError("request needs a workload name")
    # NaN fails every comparison, so test for the accepted range.
    deadline = request.deadline_s
    if deadline is not None and not 0 <= deadline <= sys.float_info.max:
        raise BudgetError(
            f"deadline_s must be a finite number >= 0, got {deadline}"
        )
    if request.request_id is not None and not isinstance(
        request.request_id, str
    ):
        raise ExperimentError(
            "request_id must be a string, got "
            f"{type(request.request_id).__name__}"
        )


@dataclass(frozen=True)
class RecommendResponse:
    """The outcome of one service request."""

    request_id: str
    workload: str
    workload_version: int
    status: str
    warm: bool
    """True when the request ran against a workload version an earlier
    request (or the restored snapshot) had already priced, so its
    pricing came from the resident what-if cache."""
    wall_seconds: float
    queue_seconds: float
    result: SelectionResult
    indexes: tuple[str, ...]
    gauges: dict[str, float] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """True when the run returned a tagged best-so-far result."""
        return self.status == STATUS_DEGRADED

    def to_dict(self) -> dict:
        """JSON-safe rendering for the line protocol."""
        return {
            "request_id": self.request_id,
            "workload": self.workload,
            "workload_version": self.workload_version,
            "status": self.status,
            "warm": self.warm,
            "wall_seconds": self.wall_seconds,
            "queue_seconds": self.queue_seconds,
            "algorithm": self.result.algorithm,
            "total_cost": self.result.total_cost,
            "memory": self.result.memory,
            "budget": self.result.budget,
            "whatif_calls": self.result.whatif_calls,
            "indexes": list(self.indexes),
            "gauges": dict(self.gauges),
        }


@dataclass(frozen=True)
class SweepRequest:
    """One multi-budget frontier request against a registered workload.

    The sweep is admission-controlled as *one* request (one concurrency
    slot, one deadline covering all points) and runs one Extend run per
    budget share (:mod:`repro.core.sweep`), in the given order, over the
    resident what-if cache — so a repeat sweep over a warm registration
    costs no backend call.

    Parameters
    ----------
    workload:
        Name of a registered workload.
    budget_shares:
        The Eq. 10 shares to answer; strict request inputs — each must
        lie in ``(0, 1]``, duplicates are rejected.
    deadline_s / request_id:
        As on :class:`RecommendRequest`.  On deadline expiry the sweep
        degrades to a tagged *partial* frontier of the points already
        answered instead of failing.
    """

    workload: str
    budget_shares: tuple[float, ...] = ()
    deadline_s: float | None = None
    request_id: str | None = None

    def __post_init__(self) -> None:
        _check_common(self)
        object.__setattr__(
            self,
            "budget_shares",
            normalize_budget_shares(self.budget_shares),
        )


@dataclass(frozen=True)
class SweepResponse:
    """The outcome of one frontier request."""

    request_id: str
    workload: str
    workload_version: int
    status: str
    partial: bool
    """True when the sweep was truncated (deadline expiry or a
    mid-sweep worker failure) — the frontier covers only the
    budget shares listed in ``sweep.points``."""
    warm: bool
    wall_seconds: float
    queue_seconds: float
    sweep: SweepResult
    indexes: dict[float, tuple[str, ...]] = field(default_factory=dict)
    """Recommended index labels per answered budget share."""
    gauges: dict[str, float] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """True when any point degraded or the frontier is partial."""
        return self.status == STATUS_DEGRADED

    def to_dict(self) -> dict:
        """JSON-safe rendering for the line protocol."""
        return {
            "request_id": self.request_id,
            "workload": self.workload,
            "workload_version": self.workload_version,
            "status": self.status,
            "partial": self.partial,
            "warm": self.warm,
            "wall_seconds": self.wall_seconds,
            "queue_seconds": self.queue_seconds,
            "points": [
                {
                    "budget_share": point.budget_share,
                    "status": point.result.status,
                    "total_cost": point.result.total_cost,
                    "memory": point.result.memory,
                    "budget": point.result.budget,
                    "whatif_calls": point.whatif_calls,
                    "indexes": list(
                        self.indexes.get(point.budget_share, ())
                    ),
                }
                for point in self.sweep.points
            ],
            "frontier": [
                {"budget_share": fp.memory, "total_cost": fp.cost}
                for fp in self.sweep.frontier
            ],
            "skipped_shares": list(self.sweep.skipped_shares),
            "notes": list(self.sweep.notes),
            "gauges": dict(self.gauges),
        }
