"""High-level index advisor facade.

The one-stop API for downstream users: point it at a schema, hand it a
workload (as :class:`~repro.workload.query.Workload` objects or SQL
templates), pick a budget, and get a recommendation with a full report.

>>> advisor = IndexAdvisor(schema)
>>> recommendation = advisor.recommend(
...     ["SELECT * FROM ORDERS WHERE ID = ?"], budget_share=0.3)
>>> print(recommendation.report.render(recommendation.workload))

Under the hood this wires together the pieces the experiments use
individually: the Appendix B cost model behind the caching what-if
facade, Algorithm 1 (optionally with the swap refinement), and the
report builder.  Alternative algorithms (CoPhy, H1–H5) are available via
``algorithm=``; budgets can be given as a share of the all-singles
footprint (Eq. 10) or as absolute bytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cophy.solver import CoPhyAlgorithm
from repro.core.evaluation import EvaluationConfig
from repro.core.extend import ExtendAlgorithm
from repro.core.localsearch import swap_local_search
from repro.core.frontier import Frontier
from repro.core.steps import STATUS_DEGRADED, SelectionResult
from repro.core.sweep import (
    SweepPoint,
    SweepResult,
    normalize_budget_shares,
    sweep_select,
)
from repro.cost.kernel import VectorizedCostSource
from repro.cost.model import CostModel
from repro.cost.whatif import (
    AnalyticalCostSource,
    CostSource,
    WhatIfOptimizer,
    WhatIfStatistics,
)
from repro.exceptions import (
    BudgetError,
    ExperimentError,
    SolverError,
)
from repro.heuristics.performance import (
    BenefitPerSizeHeuristic,
    PerformanceHeuristic,
)
from repro.heuristics.rules import (
    FrequencyHeuristic,
    SelectivityFrequencyHeuristic,
    SelectivityHeuristic,
)
from repro.indexes.candidates import (
    check_candidate_width,
    syntactically_relevant_candidates,
)
from repro.indexes.memory import relative_budget
from repro.report import AdvisorReport, build_report
from repro.resilience import (
    Deadline,
    ResiliencePolicy,
    ResilientCostSource,
)
from repro.telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
    TelemetrySnapshot,
)
from repro.workload.compression import pricing_prepass
from repro.workload.query import Query, Workload
from repro.workload.schema import Schema
from repro.workload.sql import workload_from_sql

__all__ = [
    "ALGORITHMS",
    "COST_KERNELS",
    "IndexAdvisor",
    "KernelStacks",
    "Recommendation",
    "check_algorithm",
    "check_cost_kernel",
    "coerce_budget",
    "run_selection",
]

ALGORITHMS = (
    "extend",
    "extend+swap",
    "cophy",
    "h1",
    "h2",
    "h3",
    "h4",
    "h4+skyline",
    "h5",
)

COST_KERNELS = ("scalar", "vectorized")


def check_algorithm(algorithm: str) -> None:
    """Reject an algorithm name outside :data:`ALGORITHMS`, before any
    work is done."""
    if algorithm not in ALGORITHMS:
        raise ExperimentError(
            f"unknown algorithm {algorithm!r}; pick one of "
            f"{', '.join(ALGORITHMS)}"
        )


def check_cost_kernel(kernel: str) -> None:
    """Reject a cost-kernel name outside :data:`COST_KERNELS`, before
    any stack is built."""
    if kernel not in COST_KERNELS:
        raise ExperimentError(
            f"unknown cost kernel {kernel!r}; pick one of "
            f"{', '.join(COST_KERNELS)}"
        )


def coerce_budget(
    schema: Schema,
    budget_share: float | None,
    budget_bytes: float | None,
) -> float:
    """Resolve the exactly-one-of budget spec into absolute bytes."""
    if (budget_share is None) == (budget_bytes is None):
        raise BudgetError(
            "specify exactly one of budget_share / budget_bytes"
        )
    if budget_bytes is not None:
        if budget_bytes < 0:
            raise BudgetError(
                f"budget_bytes must be >= 0, got {budget_bytes}"
            )
        return float(budget_bytes)
    return relative_budget(schema, budget_share)


class KernelStacks:
    """Per-cost-kernel (resilient source, what-if facade) stacks.

    One lazily built stack per kernel flavour over a fixed schema:
    per-kernel caches must never mix (a cached vectorized cost
    answering a scalar-kernel run would blur the 1e-9 equivalence
    contract into the differential tests).  Shared by
    :class:`IndexAdvisor` (one caller, many ``recommend`` calls) and
    ``repro.service.AdvisorService`` (many concurrent requests, many
    registered workloads on one schema).

    Parameters
    ----------
    schema:
        The schema all stacks price against.
    cost_source:
        The primary what-if backend; ``None`` means the per-kernel
        analytic source itself (infallible, no fallbacks needed).
    policy:
        Default retry/breaker policy for the resilient wrappers.
    whatif_cache_entries:
        Optional LRU bound forwarded to every kernel's
        :class:`WhatIfOptimizer` (``None`` = unbounded).
    """

    def __init__(
        self,
        schema: Schema,
        *,
        cost_source: CostSource | None = None,
        policy: ResiliencePolicy | None = None,
        whatif_cache_entries: int | None = None,
    ) -> None:
        self._schema = schema
        self._cost_source = cost_source
        self._policy = policy
        self._whatif_cache_entries = whatif_cache_entries
        self._analytic: dict[str, CostSource] = {}
        self._stacks: dict[
            str, tuple[ResilientCostSource, WhatIfOptimizer]
        ] = {}

    @property
    def policy(self) -> ResiliencePolicy | None:
        """The current default retry/breaker policy."""
        return self._policy

    def analytic(self, kernel: str) -> CostSource:
        """The (infallible) analytic source of one kernel flavour."""
        source = self._analytic.get(kernel)
        if source is None:
            if kernel == "vectorized":
                source = VectorizedCostSource(self._schema)
            else:
                source = AnalyticalCostSource(CostModel(self._schema))
            self._analytic[kernel] = source
        return source

    def stack(
        self, kernel: str
    ) -> tuple[ResilientCostSource, WhatIfOptimizer]:
        """The resilient source and caching facade of one flavour."""
        check_cost_kernel(kernel)
        stack = self._stacks.get(kernel)
        if stack is None:
            analytical = self.analytic(kernel)
            primary = (
                self._cost_source
                if self._cost_source is not None
                else analytical
            )
            fallbacks = () if primary is analytical else (analytical,)
            resilient = ResilientCostSource(
                primary, policy=self._policy, fallbacks=fallbacks
            )
            stack = (
                resilient,
                WhatIfOptimizer(
                    resilient, max_entries=self._whatif_cache_entries
                ),
            )
            self._stacks[kernel] = stack
        return stack

    def built_kernels(self) -> tuple[str, ...]:
        """Kernels whose stacks (and therefore caches) exist already."""
        return tuple(self._stacks)

    def set_policy(self, policy: ResiliencePolicy) -> None:
        """Swap the policy on current and future stacks (breaker state
        survives the swap)."""
        self._policy = policy
        for resilient, _ in self._stacks.values():
            resilient.policy = policy

    def vectorized_statistics(self):
        """``KernelStatistics`` of the compiled kernel, if built yet."""
        source = self._analytic.get("vectorized")
        return None if source is None else source.statistics

    def publish(
        self,
        registry: MetricsRegistry,
        kernel: str,
        whatif: WhatIfStatistics,
    ) -> None:
        """Bridge one kernel's cost stack into ``registry`` as gauges:
        ``whatif`` (the facade's statistics, or a delta of them) as
        ``whatif.*``, the resilient source's counters as
        ``resilience.*`` and, once the compiled kernel is built, its
        counters as ``kernel.*``."""
        resilient, _ = self.stack(kernel)
        registry.publish("whatif", whatif)
        registry.publish("resilience", resilient.statistics)
        statistics = self.vectorized_statistics()
        if statistics is not None:
            registry.publish("kernel", statistics)


def run_selection(
    workload: Workload,
    budget: float,
    *,
    algorithm: str,
    optimizer: WhatIfOptimizer,
    telemetry: Telemetry = NULL_TELEMETRY,
    candidate_width: int = 4,
    deadline: Deadline | None = None,
    solver_time_limit: float = 120.0,
    evaluation: EvaluationConfig | None = None,
) -> SelectionResult:
    """Dispatch one selection run to the named algorithm.

    The shared engine behind :meth:`IndexAdvisor.recommend` and the
    service's request execution: Extend (optionally with the swap
    refinement), CoPhy with the
    degrade-to-Extend fallback, and the H1–H5 heuristics, all under one
    ``deadline`` against one what-if facade.
    """
    check_algorithm(algorithm)
    deadline = deadline or Deadline.none()
    evaluation = evaluation or EvaluationConfig()
    if algorithm in ("extend", "extend+swap"):
        result = ExtendAlgorithm(
            optimizer,
            telemetry=telemetry,
            evaluation=evaluation,
        ).select(workload, budget, deadline=deadline)
        if algorithm == "extend+swap":
            candidates = syntactically_relevant_candidates(
                workload, candidate_width
            )
            result = swap_local_search(
                workload,
                optimizer,
                result,
                budget,
                candidates,
                telemetry=telemetry,
                deadline=deadline,
            )
        return result

    candidates = syntactically_relevant_candidates(
        workload, candidate_width
    )
    if algorithm == "cophy":
        try:
            return CoPhyAlgorithm(
                optimizer,
                time_limit=solver_time_limit,
                telemetry=telemetry,
            ).select(workload, budget, candidates, deadline=deadline)
        except SolverError:
            # DNF (Table I) or solver failure: degrade to Extend —
            # a recommendation under the same budget and deadline
            # beats no recommendation at all.
            if telemetry.enabled:
                telemetry.metrics.counter(
                    "advisor.solver_fallbacks"
                ).increment()
            fallback = ExtendAlgorithm(
                optimizer,
                telemetry=telemetry,
                evaluation=evaluation,
            ).select(workload, budget, deadline=deadline)
            return dataclasses.replace(
                fallback, status=STATUS_DEGRADED
            )
    heuristics = {
        "h1": FrequencyHeuristic,
        "h2": SelectivityHeuristic,
        "h3": SelectivityFrequencyHeuristic,
        "h5": BenefitPerSizeHeuristic,
    }
    if algorithm in heuristics:
        return heuristics[algorithm](
            optimizer, telemetry=telemetry
        ).select(workload, budget, candidates, deadline=deadline)
    return PerformanceHeuristic(
        optimizer,
        use_skyline=algorithm == "h4+skyline",
        telemetry=telemetry,
    ).select(workload, budget, candidates, deadline=deadline)


@dataclass(frozen=True)
class Recommendation:
    """A selection plus everything needed to understand it."""

    workload: Workload
    result: SelectionResult
    report: AdvisorReport
    telemetry: TelemetrySnapshot = TelemetrySnapshot()
    """Metrics, spans, and step events of this run (empty when the
    advisor ran with disabled telemetry)."""

    @property
    def indexes(self) -> list[str]:
        """Human-readable labels of the recommended indexes."""
        schema = self.workload.schema
        return [
            index.label(schema)
            for index in sorted(
                self.result.configuration,
                key=lambda index: (index.table_name, index.attributes),
            )
        ]


@dataclass(frozen=True)
class SweepRecommendation:
    """A whole cost/memory frontier answered in one advisor call."""

    workload: Workload
    sweep: SweepResult
    telemetry: TelemetrySnapshot = TelemetrySnapshot()

    @property
    def frontier(self) -> Frontier:
        """The answered points as a cost vs. budget-share frontier."""
        return self.sweep.frontier

    @property
    def points(self) -> tuple[SweepPoint, ...]:
        """Per-budget points, in the caller's share order."""
        return self.sweep.points

    @property
    def results(self) -> tuple[SelectionResult, ...]:
        """Per-budget selection results, in the caller's share order."""
        return self.sweep.results

    @property
    def partial(self) -> bool:
        """True when the sweep was truncated by its deadline."""
        return self.sweep.partial

    def indexes_at(self, budget_share: float) -> list[str] | None:
        """Human-readable index labels of one answered budget point."""
        point = self.sweep.point_for(budget_share)
        if point is None:
            return None
        schema = self.workload.schema
        return [
            index.label(schema)
            for index in sorted(
                point.result.configuration,
                key=lambda index: (index.table_name, index.attributes),
            )
        ]


class IndexAdvisor:
    """Recommends index configurations for workloads on one schema.

    The advisor owns a shared what-if facade, so repeated calls (more
    budgets, different algorithms, drifted workloads) reuse all cached
    cost estimates.

    The cost backend is always wrapped in a
    :class:`~repro.resilience.ResilientCostSource` whose fallback chain
    ends at the Appendix B analytic model: a flaky ``cost_source``
    (e.g. a remote plan-costing service or the fault-injection harness)
    is retried, breaker-protected, and ultimately degraded to
    fallback-priced answers instead of crashing the recommendation.

    Parameters
    ----------
    schema:
        The schema recommendations are made for.
    telemetry:
        Observability session shared by all runs of this advisor.
    cost_source:
        The primary what-if backend; defaults to the (infallible)
        analytic model.
    resilience:
        Default retry/breaker policy; can be overridden per call via
        ``recommend(resilience=...)``.
    cost_kernel:
        Default analytic backend flavour: ``"vectorized"`` (the
        compiled batch kernel of :mod:`repro.cost.kernel`, default)
        or ``"scalar"`` (the pure-Python :class:`CostModel`).  Both
        price every pair within 1e-9 relative tolerance of each other;
        overridable per call via ``recommend(cost_kernel=...)``.
    """

    def __init__(
        self,
        schema: Schema,
        *,
        telemetry: Telemetry = NULL_TELEMETRY,
        cost_source: CostSource | None = None,
        resilience: ResiliencePolicy | None = None,
        cost_kernel: str = "vectorized",
    ) -> None:
        check_cost_kernel(cost_kernel)
        self._schema = schema
        self._default_kernel = cost_kernel
        self._kernel_stacks = KernelStacks(
            schema,
            cost_source=cost_source,
            policy=resilience,
        )
        self._resilient, self._optimizer = self._kernel_stacks.stack(
            cost_kernel
        )
        self._telemetry = telemetry

    @property
    def telemetry(self) -> Telemetry:
        """The advisor-wide observability session."""
        return self._telemetry

    @property
    def schema(self) -> Schema:
        """The schema recommendations are made for."""
        return self._schema

    @property
    def optimizer(self) -> WhatIfOptimizer:
        """The shared what-if facade (exposed for call accounting)."""
        return self._optimizer

    @property
    def resilience(self) -> ResilientCostSource:
        """The resilient cost backend (breaker, retry counters)."""
        return self._resilient

    @property
    def kernel_stacks(self) -> KernelStacks:
        """The per-kernel cost stacks (exposed for accounting)."""
        return self._kernel_stacks

    # ------------------------------------------------------------------
    # Input coercion
    # ------------------------------------------------------------------

    def _coerce_workload(
        self,
        workload: Workload
        | Sequence[str]
        | Sequence[tuple[str, float]]
        | Iterable[Query],
    ) -> Workload:
        if isinstance(workload, Workload):
            return workload
        items = list(workload)
        if not items:
            raise ExperimentError("empty workload")
        if isinstance(items[0], Query):
            return Workload(self._schema, items)  # type: ignore[arg-type]
        return workload_from_sql(self._schema, items)  # type: ignore[arg-type]

    def _coerce_budget(
        self, budget_share: float | None, budget_bytes: float | None
    ) -> float:
        return coerce_budget(self._schema, budget_share, budget_bytes)

    # ------------------------------------------------------------------
    # Recommendation
    # ------------------------------------------------------------------

    def recommend(
        self,
        workload: Workload
        | Sequence[str]
        | Sequence[tuple[str, float]]
        | Iterable[Query],
        *,
        budget_share: float | None = None,
        budget_bytes: float | None = None,
        algorithm: str = "extend+swap",
        candidate_width: int = 4,
        hot_spot_count: int = 5,
        deadline_s: float | None = None,
        resilience: ResiliencePolicy | None = None,
        solver_time_limit: float = 120.0,
        cost_kernel: str | None = None,
        compression_share: float | None = None,
        merge_duplicates: bool = False,
    ) -> Recommendation:
        """Compute an index recommendation.

        Parameters
        ----------
        workload:
            A :class:`Workload`, a list of SQL template strings (or
            ``(sql, frequency)`` pairs), or an iterable of
            :class:`Query` objects.
        budget_share / budget_bytes:
            Exactly one of: the Eq. 10 share ``w``, or absolute bytes.
        algorithm:
            One of ``extend``, ``extend+swap`` (default), ``cophy``,
            ``h1`` … ``h5``, ``h4+skyline``.
        candidate_width:
            Maximum index width (a positive integer) of the candidate
            set of the two-step algorithms and of the ``extend+swap``
            swap pool; plain ``extend`` does not use it.
        hot_spot_count:
            How many residual hot spots the report lists (``>= 0``).
        deadline_s:
            Wall-clock budget for the selection.  On expiry, algorithms
            return their feasible best-so-far configuration with
            ``result.status == "degraded"`` instead of running over.
        resilience:
            Retry/breaker policy applied to the cost backend for this
            and subsequent calls (breaker state survives the swap).
        solver_time_limit:
            Time limit in seconds for the CoPhy MIP solve (default
            120.0); a tighter ``deadline_s`` caps it further.  When the
            solver fails or times out without an incumbent, the advisor
            falls back to Extend and tags the result ``degraded``.
        cost_kernel:
            Analytic backend flavour for this call (``"scalar"`` or
            ``"vectorized"``); ``None`` (default) uses the advisor's
            constructor default.  Each flavour keeps its own what-if
            cache and call counters.
        compression_share / merge_duplicates:
            The :func:`~repro.workload.compression.pricing_prepass`
            knobs: merge content-duplicate templates (lossless for the
            total workload cost) and/or keep only the templates
            covering ``compression_share`` of estimated cost before
            pricing.  Both default off — compression trades fidelity
            (and step-trace stability) for selection time on very
            large workloads.
        """
        check_algorithm(algorithm)
        kernel = (
            cost_kernel if cost_kernel is not None else self._default_kernel
        )
        check_cost_kernel(kernel)
        check_candidate_width(candidate_width)
        if hot_spot_count < 0:
            raise ExperimentError(
                f"hot_spot_count must be >= 0, got {hot_spot_count}"
            )
        resolved = self._coerce_workload(workload)
        budget = self._coerce_budget(budget_share, budget_bytes)
        _, optimizer = self._kernel_stacks.stack(kernel)
        if resilience is not None:
            self._kernel_stacks.set_policy(resilience)
        if merge_duplicates or compression_share is not None:
            resolved, _ = pricing_prepass(
                resolved,
                optimizer,
                merge_duplicates=merge_duplicates,
                share=compression_share,
            )
        deadline = Deadline(deadline_s)
        telemetry = self._telemetry
        stats_before = optimizer.statistics.copy()
        with telemetry.tracer.span(
            "advisor.recommend", algorithm=algorithm
        ):
            result = run_selection(
                resolved,
                budget,
                algorithm=algorithm,
                optimizer=optimizer,
                telemetry=telemetry,
                candidate_width=candidate_width,
                deadline=deadline,
                solver_time_limit=solver_time_limit,
            )
            run_statistics = optimizer.statistics.since(
                stats_before
            )
            with telemetry.tracer.span("advisor.report"):
                report = build_report(
                    resolved,
                    optimizer,
                    result,
                    hot_spot_count=hot_spot_count,
                    whatif_statistics=run_statistics,
                )
        if telemetry.enabled:
            self._kernel_stacks.publish(
                telemetry.metrics, kernel, optimizer.statistics
            )
        return Recommendation(
            workload=resolved,
            result=result,
            report=report,
            telemetry=telemetry.snapshot(),
        )

    def recommend_sweep(
        self,
        workload: Workload
        | Sequence[str]
        | Sequence[tuple[str, float]]
        | Iterable[Query],
        *,
        budget_shares: Sequence[float],
        deadline_s: float | None = None,
        cost_kernel: str | None = None,
    ) -> SweepRecommendation:
        """Answer every budget share with one Extend run each.

        The multi-budget companion of :meth:`recommend`: instead of one
        budget, take the whole grid and run Extend once per share
        (:func:`repro.core.sweep.sweep_select`) over the advisor's
        what-if facade, so a pair priced for one point is a cache hit
        for the others.  Every point is bit-identical to a standalone
        :meth:`recommend` with ``algorithm="extend"`` at that budget
        (the swap local search of the ``extend+swap`` default is a
        separate post-pass and is not swept).

        ``budget_shares`` are strict request inputs: each must lie in
        ``(0, 1]`` and duplicates are rejected
        (:func:`~repro.core.sweep.normalize_budget_shares`).  Under an
        expired ``deadline_s`` the sweep degrades to the points already
        answered (``result.partial``) rather than failing.  Extend is
        the only swept algorithm — it is the one whose construction is
        budget-independent.
        """
        shares = normalize_budget_shares(budget_shares)
        kernel = (
            cost_kernel if cost_kernel is not None else self._default_kernel
        )
        check_cost_kernel(kernel)
        resolved = self._coerce_workload(workload)
        _, optimizer = self._kernel_stacks.stack(kernel)
        telemetry = self._telemetry
        with telemetry.tracer.span(
            "advisor.recommend_sweep", points=len(shares)
        ):
            sweep = sweep_select(
                resolved,
                optimizer,
                shares,
                telemetry=telemetry,
                deadline=Deadline(deadline_s),
            )
        if telemetry.enabled:
            self._kernel_stacks.publish(
                telemetry.metrics, kernel, optimizer.statistics
            )
        return SweepRecommendation(
            workload=resolved,
            sweep=sweep,
            telemetry=telemetry.snapshot(),
        )
