"""CoPhy selection algorithm: BIP solved with HiGHS.

The paper's authors solved the program with CPLEX 12.7 (mipgap 0.05, four
threads, via NEOS); we use SciPy's ``milp`` wrapper around the HiGHS
branch-and-bound solver with the same optimality-gap semantics and a
configurable time limit standing in for Table I's eight-hour DNF cutoff.

For a *given candidate set*, CoPhy's selection is optimal (up to the MIP
gap); its quality in the paper's experiments therefore isolates the effect
of candidate-set choice, which is exactly what Figs. 2–5 study.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.steps import (
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    SelectionResult,
)
from repro.cophy.model import CoPhyProblem, build_problem
from repro.cost.whatif import WhatIfOptimizer
from repro.exceptions import SolverError, SolverTimeoutError
from repro.indexes.configuration import IndexConfiguration
from repro.indexes.index import Index
from repro.indexes.memory import configuration_memory
from repro.resilience.deadline import Deadline
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workload.query import Workload

__all__ = ["CoPhyAlgorithm", "CoPhyResult"]


class CoPhyResult(SelectionResult):
    """Selection result with LP metadata."""

    def __init__(
        self,
        *,
        variables: int,
        constraints: int,
        mip_gap: float,
        timed_out: bool,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "mip_gap", mip_gap)
        object.__setattr__(self, "timed_out", timed_out)


class CoPhyAlgorithm:
    """Solver-based index selection over a fixed candidate set.

    Parameters
    ----------
    optimizer:
        What-if facade supplying the cost coefficients ``f_j(k)``.
    mip_gap:
        Relative optimality gap passed to the solver (paper: 0.05).
    time_limit:
        Solve-time limit in seconds; exceeding it without any feasible
        incumbent raises :class:`SolverTimeoutError` (a "DNF"), exceeding
        it *with* an incumbent returns the incumbent flagged
        ``timed_out=True``.  ``None`` means no limit.
    telemetry:
        Observability session (see :mod:`repro.telemetry`): traces
        ``cophy.build_problem`` and ``cophy.solve`` spans and publishes
        problem-size gauges when enabled.
    """

    name = "CoPhy"

    def __init__(
        self,
        optimizer: WhatIfOptimizer,
        *,
        mip_gap: float = 0.05,
        time_limit: float | None = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        if mip_gap < 0:
            raise SolverError(f"mip_gap must be >= 0, got {mip_gap}")
        if time_limit is not None and time_limit <= 0:
            raise SolverError(
                f"time_limit must be > 0, got {time_limit}"
            )
        self._optimizer = optimizer
        self._mip_gap = mip_gap
        self._time_limit = time_limit
        self._telemetry = telemetry

    def select(
        self,
        workload: Workload,
        budget: float,
        candidates: list[Index],
        *,
        deadline: Deadline | None = None,
    ) -> CoPhyResult:
        """Solve (5)–(8) and return the selected configuration.

        ``runtime_seconds`` covers the solver only; the what-if calls
        needed to build the cost table are counted in ``whatif_calls``
        (the paper reports the two contributions separately).

        A ``deadline`` caps the effective solver time limit at its
        remaining budget (the MIP solve itself cannot be interrupted
        from outside, so the deadline must be applied up front).  A
        solve that hits the limit *with* a feasible incumbent returns
        it flagged ``timed_out=True`` and ``status="degraded"``; one
        without any incumbent raises :class:`SolverTimeoutError`.
        """
        telemetry = self._telemetry
        tracer = telemetry.tracer
        deadline = deadline or Deadline.none()
        calls_before = self._optimizer.calls
        with tracer.span(
            "cophy.build_problem", candidates=len(candidates)
        ):
            problem = build_problem(
                workload, candidates, budget, self._optimizer
            )
        whatif_calls = self._optimizer.calls - calls_before

        time_limit = self._time_limit
        if not deadline.unlimited:
            remaining = deadline.remaining()
            if remaining <= 0:
                raise SolverTimeoutError(
                    "deadline expired before the CoPhy solve started"
                )
            time_limit = (
                remaining
                if time_limit is None
                else min(time_limit, remaining)
            )

        started = time.perf_counter()
        with tracer.span("cophy.solve") as solve_span:
            solution, timed_out = self._solve(problem, time_limit)
            solve_span.annotate("timed_out", timed_out)
        runtime = time.perf_counter() - started

        if telemetry.enabled:
            telemetry.metrics.gauge("cophy.variables").set(
                problem.size.variables
            )
            telemetry.metrics.gauge("cophy.constraints").set(
                problem.size.constraints
            )
            telemetry.metrics.counter(
                "cophy.whatif_calls"
            ).increment(whatif_calls)
            telemetry.metrics.publish("whatif", self._optimizer.statistics)

        selected = problem.selection_from(solution)
        configuration = IndexConfiguration(selected)
        total_cost = self._optimizer.workload_cost(workload, configuration)
        return CoPhyResult(
            algorithm=self.name,
            configuration=configuration,
            total_cost=total_cost,
            memory=configuration_memory(workload.schema, selected),
            budget=budget,
            runtime_seconds=runtime,
            whatif_calls=whatif_calls,
            variables=problem.size.variables,
            constraints=problem.size.constraints,
            mip_gap=self._mip_gap,
            timed_out=timed_out,
            status=STATUS_DEGRADED if timed_out else STATUS_COMPLETED,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _solve(
        self, problem: CoPhyProblem, time_limit: float | None
    ) -> tuple[np.ndarray, bool]:
        from scipy.optimize import Bounds, LinearConstraint, milp

        variable_count = problem.constraint_matrix.shape[1]
        options: dict[str, float] = {"mip_rel_gap": self._mip_gap}
        if time_limit is not None:
            options["time_limit"] = time_limit
        result = milp(
            c=problem.objective,
            constraints=LinearConstraint(
                problem.constraint_matrix,
                problem.lower_bounds,
                problem.upper_bounds,
            ),
            integrality=np.ones(variable_count),
            bounds=Bounds(0.0, 1.0),
            options=options,
        )
        timed_out = result.status == 1  # iteration/time limit reached
        if result.x is None:
            if timed_out:
                raise SolverTimeoutError(
                    "CoPhy solve hit the time limit "
                    f"({time_limit}s) without a feasible incumbent "
                    "(DNF)"
                )
            raise SolverError(
                f"CoPhy solve failed: status={result.status} "
                f"message={result.message!r}"
            )
        return np.asarray(result.x), timed_out
