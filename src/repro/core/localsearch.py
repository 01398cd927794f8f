"""Swap-based local search over index configurations.

Greedy constructive selection (Algorithm 1, but also H4/H5) can strand
budget in indexes that later steps made nearly redundant — index
interaction at work: an index that was the best choice at step ``t`` may
be cannibalized by an index added at step ``t' > t`` (Property 2 of
Section V).  This module implements an improvement pass in the spirit of
Remark 1 (2)/(3) and of the "recovery" phase of Kimura et al.: repeatedly
try to add a beneficial unselected candidate, evicting the selected
indexes with the smallest marginal value until the budget fits, and keep
the swap when it lowers total cost.

The pass is algorithm-agnostic: it improves any
:class:`~repro.indexes.configuration.IndexConfiguration` given a candidate
pool.  All costs flow through the caching what-if facade, so the extra
optimizer calls are limited to candidates whose bound reaches the cut.
"""

from __future__ import annotations

import heapq
import time
from typing import Iterable, Sequence

import numpy as np

from repro.core.steps import STATUS_DEGRADED, SelectionResult
from repro.cost.whatif import Applicability, WhatIfOptimizer, WriteLoad
from repro.exceptions import BudgetError
from repro.indexes.configuration import IndexConfiguration
from repro.indexes.index import Index
from repro.indexes.memory import index_memory
from repro.resilience.deadline import Deadline
from repro.telemetry import NULL_TELEMETRY, StepEvent, Telemetry
from repro.workload.query import Workload

__all__ = ["swap_local_search"]


class _CostCache:
    """Per-(query-position, index) cost matrix fed lazily by the facade."""

    def __init__(self, workload: Workload, optimizer: WhatIfOptimizer):
        self.optimizer = optimizer
        self._queries = workload.queries
        self._writes = WriteLoad(self._queries)
        self.applicability = Applicability(self._queries)
        self.weights = np.array(
            [query.frequency for query in self._queries], dtype=np.float64
        )
        self.sequential = np.asarray(
            optimizer.sequential_costs(self._queries), dtype=np.float64
        )
        self._columns: dict[Index, np.ndarray] = {}
        self._maintenance: dict[Index, float] = {}

    def column(self, index: Index) -> np.ndarray:
        """Vector of read-part ``f_j(k)`` per query (sequential if n/a)."""
        cached = self._columns.get(index)
        if cached is None:
            [(_, positions, costs)] = self.applicability.price(
                self.optimizer, (index,)
            )
            cached = self.keep(index, positions, costs)
        return cached

    def keep(
        self, index: Index, positions: np.ndarray, costs: np.ndarray
    ) -> np.ndarray:
        """Install ``index``'s column from its costs at ``positions``;
        other rows reuse the sequential vector, exactly like
        :meth:`WhatIfOptimizer.index_cost` (no facade traffic)."""
        column = self.sequential.copy()
        column[positions] = costs
        self._columns[index] = column
        return column

    def maintenance_of(self, index: Index) -> float:
        """Frequency-weighted maintenance the index imposes on writes."""
        cached = self._maintenance.get(index)
        if cached is None:
            cached = self._writes.load(self.optimizer, index)
            self._maintenance[index] = cached
        return cached

    def configuration_cost(self, indexes: Iterable[Index]) -> float:
        """``F(I*)`` under one-index-per-query semantics plus the
        additive maintenance of every selected index."""
        indexes = tuple(indexes)
        return self.cost_from_best(self.per_query_best(indexes), indexes)

    def cost_from_best(
        self, best: np.ndarray, indexes: Iterable[Index]
    ) -> float:
        """``F`` from a selection's per-query minimum vector ``best``
        plus the maintenance of ``indexes``, summed in their order (none
        without write queries)."""
        maintenance = 0.0
        if self._writes:
            for index in indexes:
                maintenance += self.maintenance_of(index)
        return float(np.dot(self.weights, best)) + maintenance

    def per_query_best(self, indexes: Iterable[Index]) -> np.ndarray:
        """Per-query minimum cost vector for a selection."""
        best = self.sequential.copy()
        for index in indexes:
            np.minimum(best, self.column(index), out=best)
        return best


class _RoundCosts:
    """Per-query best and second-best cost of one round's selection.

    The rows are the selected columns, sorted by name, then the
    sequential row.  ``first`` is their per-query minimum, ``owner`` the
    first row that reaches it (as ``argmin`` picks it) and ``second``
    the second-smallest value.  A candidate column enters between the
    selected rows and the sequential row, so only queries where it
    undercuts ``second`` can change any selected index's marginal, and
    a trial's per-query best follows from these three vectors without
    restacking the selection for every candidate.
    """

    def __init__(self, cache: _CostCache, ordered: Sequence[Index]):
        self.weights = cache.weights
        self.rows = np.vstack(
            [*(cache.column(index) for index in ordered), cache.sequential]
        )
        self.first = self.rows.min(axis=0)
        self.owner = np.argmin(self.rows, axis=0)
        self.second = (
            np.partition(self.rows, 1, axis=0)[1]
            if ordered
            else np.full_like(self.first, np.inf)
        )
        self.owned = [
            np.flatnonzero(self.owner == row) for row in range(len(ordered))
        ]
        regret = (self.second - self.first) * self.weights
        self.base = [float(regret[owned].sum()) for owned in self.owned]

    def marginals(self, column: np.ndarray) -> list[float]:
        """Each selected row's marginal value with ``column`` present:
        the weighted regret of the queries it still owns."""
        marginal = list(self.base)
        affected = np.unique(self.owner[column < self.second])
        for row in affected[affected < len(marginal)].tolist():
            owned = self.owned[row]
            cost, first = column[owned], self.first[owned]
            best = np.minimum(cost, first)
            second = np.minimum(np.maximum(cost, first), self.second[owned])
            regret = (second - best) * self.weights[owned]
            # On a tie the selected row, stacked first, keeps the query.
            marginal[row] = float(regret[cost >= first].sum())
        return marginal

    def trial_best(
        self, column: np.ndarray, evicted: Sequence[int]
    ) -> np.ndarray:
        """Per-query minimum once ``evicted`` rows leave and ``column``
        joins."""
        if not evicted:
            best = self.first.copy()
        elif len(evicted) == 1:
            best = np.where(
                self.owner == evicted[0], self.second, self.first
            )
        else:
            best = np.delete(self.rows, evicted, axis=0).min(axis=0)
        return np.minimum(best, column, out=best)


def _prune_pool(
    cache: _CostCache,
    selected: set[Index],
    pool: list[Index],
    max_pool: int,
    deadline: Deadline,
) -> tuple[list[Index] | None, int]:
    """The ``max_pool`` candidates that add most on top of ``selected``
    (against the no-index baseline, redundant variants of covered hot
    queries would win), stable in pool order, and how many candidates
    were priced; ``None`` instead of the list once ``deadline``
    expires, checked as each candidate's costs arrive.

    Costs are non-negative, so a candidate gains at most the weighted
    ``base`` cost of the queries it applies to — a bound shared by
    every candidate with its leading attribute.  Those groups are
    priced in descending bound order (ties in pool order) until a
    group's bound falls strictly below the ``max_pool``-th best gain
    priced so far: no candidate left can then make the cut, so the
    kept list equals ranking the whole pool.  Candidates are priced
    only where they apply; only the survivors get dense columns.
    """
    if max_pool == 0:
        return [], 0
    base = cache.per_query_best(
        sorted(
            selected, key=lambda index: (index.table_name, index.attributes)
        )
    )
    weights = cache.weights
    applicability = cache.applicability
    # Off its applicable rows a candidate costs f_j(0) >= base, so its
    # gain there is exactly 0 and the dot over this vector equals the
    # one over a dense column, bit for bit.  A bound is the same dot
    # over the same buffer holding base where a score holds
    # max(base - cost, 0) <= base, so no score exceeds its bound in
    # floating point either.
    gain = np.zeros_like(base)
    groups: dict[int, list[int]] = {}
    for position, index in enumerate(pool):
        groups.setdefault(index.leading_attribute, []).append(position)
    bounded: list[tuple[float, list[int]]] = []
    for members in groups.values():
        positions = applicability.positions(pool[members[0]])
        gain[positions] = base[positions]
        bounded.append((float(np.dot(weights, gain)), members))
        gain[positions] = 0.0
    # Stable: equal bounds keep the order of their first pool position.
    bounded.sort(key=lambda group: -group[0])
    best: list[float] = []  # min-heap of the max_pool largest gains
    scores: dict[int, float] = {}
    sparse: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for bound, members in bounded:
        if len(best) == max_pool and bound < best[0]:
            break
        candidates = [pool[position] for position in members]
        for position, (_, positions, costs) in zip(
            members, applicability.price(cache.optimizer, candidates)
        ):
            if deadline.expired:
                return None, len(scores)
            gain[positions] = np.maximum(base[positions] - costs, 0.0)
            score = float(np.dot(weights, gain))
            gain[positions] = 0.0
            scores[position] = score
            sparse[position] = (positions, costs)
            if len(best) < max_pool:
                heapq.heappush(best, score)
            elif score > best[0]:
                heapq.heapreplace(best, score)
    kept = sorted(scores, key=lambda position: (-scores[position], position))
    kept = kept[:max_pool]
    for position in kept:
        cache.keep(pool[position], *sparse[position])
    return [pool[position] for position in kept], len(scores)


def swap_local_search(
    workload: Workload,
    optimizer: WhatIfOptimizer,
    result: SelectionResult,
    budget: float,
    candidate_pool: Iterable[Index],
    *,
    max_rounds: int = 20,
    max_pool: int = 500,
    telemetry: Telemetry = NULL_TELEMETRY,
    deadline: Deadline | None = None,
) -> SelectionResult:
    """Improve a selection by budget-respecting swaps.

    Parameters
    ----------
    result:
        The starting selection (from Extend or any heuristic).
    candidate_pool:
        Indexes that may be swapped in.  The pool is pruned to the
        ``max_pool`` candidates with the largest benefit on top of the
        starting selection to bound the search (``max_pool >= 0``;
        ``0`` empties the pool without pricing it).
    max_rounds:
        Upper bound on improving swaps (each round changes the
        configuration, so convergence is guaranteed anyway — costs
        strictly decrease).
    deadline:
        Optional wall-clock budget.  The search stops at the next round
        boundary, or between pool-pricing batches, once expired and the
        result is tagged ``degraded`` (every completed swap already
        improved on the input, so stopping early is always safe).

    Returns
    -------
    SelectionResult
        A result with the same algorithm name suffixed ``"+swap"``;
        identical to the input if no improving swap exists.  A
        ``degraded`` input stays degraded.
    """
    if budget < 0:
        raise BudgetError(f"budget must be >= 0, got {budget}")
    if max_pool < 0:
        raise BudgetError(f"max_pool must be >= 0, got {max_pool}")
    deadline = deadline or Deadline.none()
    status = result.status
    started = time.perf_counter()
    statistics = optimizer.statistics
    calls_before = statistics.calls
    tracer = telemetry.tracer
    run_context = tracer.span(
        "localsearch.swap", algorithm=result.algorithm
    )
    run_span = run_context.__enter__()
    # Manual enter/exit keeps the (long) search body at its original
    # indentation; the finally below guarantees the span closes.
    try:
        schema = workload.schema
        with tracer.span("localsearch.pool") as pool_span:
            cache = _CostCache(workload, optimizer)

            selected: set[Index] = set(result.configuration)
            memory = {
                index: index_memory(schema, index)
                for index in selected
            }
            current_memory = sum(memory.values())

            pool = [index for index in dict.fromkeys(candidate_pool)]
            pool = [index for index in pool if index not in selected]
            if len(pool) > max_pool:
                size = len(pool)
                pool, priced = _prune_pool(
                    cache, selected, pool, max_pool, deadline
                )
                if pool is None:  # the deadline expired while ranking
                    status, pool = STATUS_DEGRADED, []
                pool_span.annotate("priced", priced)
                pool_span.annotate("pruned", size - priced)
                if telemetry.enabled:
                    telemetry.metrics.counter(
                        "localsearch.pool_pruned"
                    ).increment(size - priced)
            for index in pool:
                memory[index] = index_memory(schema, index)

        current_cost = cache.configuration_cost(selected)
        rounds = 0
        swaps = 0
        while rounds < max_rounds:
            if deadline.expired:
                status = STATUS_DEGRADED
                break
            rounds += 1
            with tracer.span("localsearch.round", round=rounds) as round_span:
                ordered_selected = sorted(
                    selected,
                    key=lambda index: (index.table_name, index.attributes),
                )
                costs = _RoundCosts(cache, ordered_selected)

                improvement: (
                    tuple[float, Index, tuple[Index, ...]] | None
                ) = None
                for candidate in pool:
                    if candidate in selected:
                        continue
                    column = cache.column(candidate)
                    needed = current_memory + memory[candidate] - budget
                    victim_rows: list[int] = []
                    if needed > 0:
                        # Marginal value of every selected index *with
                        # the candidate present* — interaction means an
                        # index can lose most of its value once the
                        # candidate covers its queries.
                        marginal = costs.marginals(column)
                        for row in sorted(
                            range(len(marginal)), key=marginal.__getitem__
                        ):
                            victim_rows.append(row)
                            needed -= memory[ordered_selected[row]]
                            if needed <= 0:
                                break
                        if needed > 0:
                            continue
                    victims = tuple(
                        ordered_selected[row] for row in victim_rows
                    )
                    trial = (selected - set(victims)) | {candidate}
                    trial_cost = cache.cost_from_best(
                        costs.trial_best(column, victim_rows), trial
                    )
                    gain = current_cost - trial_cost
                    if gain > 0 and (
                        improvement is None or gain > improvement[0]
                    ):
                        improvement = (gain, candidate, victims)
                if improvement is None:
                    round_span.annotate("outcome", "converged")
                    break
                gain, candidate, evicted = improvement
                cost_before = current_cost
                memory_before = current_memory
                selected = (selected - set(evicted)) | {candidate}
                current_memory = sum(
                    memory[index] for index in selected
                )
                current_cost = cache.configuration_cost(selected)
                pool = [index for index in pool if index != candidate]
                pool.extend(evicted)
                swaps += 1
                round_span.annotate("outcome", "swapped")
                round_span.annotate("gain", gain)
                if telemetry.enabled:
                    memory_delta = current_memory - memory_before
                    telemetry.emit_step(
                        StepEvent(
                            algorithm=f"{result.algorithm}+swap",
                            step_number=swaps,
                            action="swap",
                            table=candidate.table_name,
                            index_before=(
                                evicted[0].attributes if evicted else None
                            ),
                            index_after=candidate.attributes,
                            chosen=True,
                            benefit=cost_before - current_cost,
                            memory_delta=memory_delta,
                            ratio=(
                                (cost_before - current_cost) / memory_delta
                                if memory_delta > 0
                                else float("inf")
                            ),
                            cost_before=cost_before,
                            cost_after=current_cost,
                            memory_before=memory_before,
                            memory_after=current_memory,
                        )
                    )
        if telemetry.enabled:
            run_span.annotate("rounds", rounds)
            run_span.annotate("swaps", swaps)
            run_span.annotate("status", status)
            telemetry.metrics.counter("localsearch.swaps").increment(swaps)
            telemetry.metrics.publish("whatif", statistics)
    finally:
        run_context.__exit__(None, None, None)

    return SelectionResult(
        algorithm=f"{result.algorithm}+swap",
        configuration=IndexConfiguration(selected),
        total_cost=current_cost,
        memory=current_memory,
        budget=budget,
        runtime_seconds=result.runtime_seconds
        + (time.perf_counter() - started),
        whatif_calls=result.whatif_calls
        + (statistics.calls - calls_before),
        reconfiguration_cost=result.reconfiguration_cost,
        steps=result.steps,
        status=status,
    )
