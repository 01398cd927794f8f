"""Algorithm 1 — the recursive constructive index-selection strategy (H6).

The algorithm grows an index set ``I`` step by step.  Each step considers

* **(3a)** creating a new single-attribute index ``{i}`` (for attributes
  whose single-attribute index is not yet selected), and
* **(3b)** appending an attribute ``i`` to the end of an existing index
  ``k`` ("morphing" ``k`` into ``k·i``),

and applies the step with the best ratio of *additional performance*
(reduction of ``F + R``) per *additional memory*.  Because every step is
priced against the current selection, index interaction is accounted for
by construction; because appended attributes preserve all existing
prefixes, no step can regress a query's cost.

The implementation mirrors the paper's efficiency argument (Section
III-A): each potential step keeps the list of queries it could possibly
affect — for a new single-attribute index these are the queries accessing
the attribute, for an extension of ``k`` by ``i`` the queries containing
*all* of ``k``'s attributes plus ``i`` (all other queries keep their usable
prefix and hence their cost).  What-if costs are fetched at most once per
``(query, index)`` pair through the caching facade.

Step evaluation itself runs on the incremental engine of
:mod:`repro.core.evaluation`: per-candidate benefits live in a
:class:`~repro.core.evaluation.BenefitTable` that is invalidated only
for candidates whose affected queries changed cost after a step, and
candidates are priced against the backend lazily — only once their
optimistic bound could win a round.  The expensive optimizer is thereby
called strictly fewer times than the "small number" the paper
advertises (``≈ 2·Q·q̄`` in total); the pre-engine exhaustive loop
remains available via ``EvaluationConfig(naive=True)`` and provably
selects the identical step sequence (see
``tests/core/test_evaluation_properties.py``).

Optional extensions of Remark 1 are available as constructor flags; see
:mod:`repro.core.variants` for the named presets used in the ablations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.budget import NO_RECONFIGURATION, ReconfigurationModel
from repro.core.evaluation import (
    BenefitTable,
    CandidateMove,
    EvaluationConfig,
)
from repro.core.steps import (
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    ConstructionStep,
    SelectionResult,
    StepKind,
)
from repro.cost.whatif import Applicability, WhatIfOptimizer, WriteLoad
from repro.exceptions import BudgetError
from repro.indexes.configuration import IndexConfiguration
from repro.indexes.index import Index, canonical_index
from repro.indexes.memory import index_memory
from repro.resilience.deadline import Deadline
from repro.telemetry import NULL_TELEMETRY, StepEvent, Telemetry
from repro.workload.query import Workload

__all__ = ["ExtendAlgorithm", "ExtendResult"]

_REJECTED_LOG_COUNT = 3
"""Runner-up moves logged as rejected step events per selection step."""


@dataclass(frozen=True)
class ExtendResult(SelectionResult):
    """Selection result with the full construction trace.

    Inherits everything from :class:`SelectionResult`; Extend always
    populates ``steps``, from which the efficient frontier can be read
    (see :mod:`repro.core.frontier`).
    """


class ExtendAlgorithm:
    """Recursive constructive multi-attribute index selection (H6).

    Parameters
    ----------
    optimizer:
        The what-if facade providing ``f_j(k)`` costs.
    max_steps:
        Optional cap on construction steps (Algorithm 1 Step 4 allows a
        "predefined maximum number of construction steps").
    max_index_width:
        Optional cap on index width.  The paper imposes none; a cap is
        useful to bound what-if calls on adversarial workloads.
    n_best_singles:
        Remark 1 (1): only the ``n`` initially most beneficial (by
        benefit/size ratio) single-attribute indexes are offered as new
        seeds.  ``None`` (default) considers all attributes.
    prune_unused:
        Remark 1 (2): after each step, drop selected indexes that no
        query uses anymore.
    pair_seeds:
        Remark 1 (4): additionally offer new *two*-attribute indexes
        (canonical permutation of co-accessed pairs) as seeds.
    missed_opportunities:
        Remark 1 (3): remember up to this many runner-up extension moves
        per step; once their base index has been morphed away, they
        become "branch" moves that create a separate index sharing the
        old leading attributes.  0 disables the mechanism.
    reconfiguration:
        Cost model for ``R(I*, Ī*)``; defaults to free reconfiguration.
    baseline:
        The existing selection ``Ī*`` reconfiguration is priced against.
    telemetry:
        Observability session (see :mod:`repro.telemetry`).  When
        enabled, every run traces one ``extend.step`` span per selection
        step and emits chosen/rejected :class:`StepEvent` records plus
        the ``evaluation.*`` engine gauges; the rejected events are the
        best rivals among the moves the step already priced, so tracing
        never adds a what-if call.  The default
        :data:`~repro.telemetry.NULL_TELEMETRY` reduces all
        instrumentation to no-ops.
    evaluation:
        Candidate-evaluation engine knobs
        (:class:`~repro.core.evaluation.EvaluationConfig`):
        ``naive=True`` restores the pre-engine exhaustive re-scan (the
        differential-testing oracle).  The default is the incremental
        engine, which selects identical steps with strictly fewer
        what-if calls.
    skip_oversized:
        When ``True`` (default), a step that would overshoot the budget
        is skipped and smaller fitting steps are still considered —
        filling tight budgets considerably better.  ``False`` stops the
        construction at the first non-fitting step (the strict reading
        of Definition 1's "as long as A is not exceeded", useful when
        one trace should serve every budget by truncation).
    """

    name = "H6"

    def __init__(
        self,
        optimizer: WhatIfOptimizer,
        *,
        max_steps: int | None = None,
        max_index_width: int | None = None,
        n_best_singles: int | None = None,
        prune_unused: bool = False,
        pair_seeds: bool = False,
        missed_opportunities: int = 0,
        reconfiguration: ReconfigurationModel = NO_RECONFIGURATION,
        baseline: IndexConfiguration | None = None,
        telemetry: Telemetry = NULL_TELEMETRY,
        skip_oversized: bool = True,
        evaluation: EvaluationConfig | None = None,
    ) -> None:
        if max_steps is not None and max_steps < 1:
            raise BudgetError(f"max_steps must be >= 1, got {max_steps}")
        if max_index_width is not None and max_index_width < 1:
            raise BudgetError(
                f"max_index_width must be >= 1, got {max_index_width}"
            )
        if n_best_singles is not None and n_best_singles < 1:
            raise BudgetError(
                f"n_best_singles must be >= 1, got {n_best_singles}"
            )
        if missed_opportunities < 0:
            raise BudgetError(
                "missed_opportunities must be >= 0, got "
                f"{missed_opportunities}"
            )
        self._optimizer = optimizer
        self._max_steps = max_steps
        self._max_width = max_index_width
        self._n_best_singles = n_best_singles
        self._prune_unused = prune_unused
        self._pair_seeds = pair_seeds
        self._missed_budget = missed_opportunities
        self._reconfiguration = reconfiguration
        self._baseline = baseline or IndexConfiguration()
        self._telemetry = telemetry
        self._skip_oversized = skip_oversized
        self._evaluation = evaluation or EvaluationConfig()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def select(
        self,
        workload: Workload,
        budget: float,
        *,
        deadline: Deadline | None = None,
    ) -> ExtendResult:
        """Run the construction until the budget (or another stop) hits.

        Following Definition 1 (H6), the step series is applied "as long
        as A is not exceeded": construction stops at the first step whose
        memory would overshoot ``budget``.  Other stop criteria: no step
        with positive net benefit remains, ``max_steps`` is reached, or
        ``deadline`` expired — the last case returns the feasible
        best-so-far configuration with ``status="degraded"`` (every
        applied step left the selection within budget, so truncation is
        always safe).
        """
        if budget < 0:
            raise BudgetError(f"budget must be >= 0, got {budget}")
        deadline = deadline or Deadline.none()
        status = STATUS_COMPLETED
        telemetry = self._telemetry
        tracer = telemetry.tracer
        statistics = self._optimizer.statistics
        started = time.perf_counter()
        calls_before = statistics.calls

        with tracer.span(
            "extend.select", algorithm=self.name, budget=budget
        ) as run_span:
            with tracer.span("extend.seed"):
                state = _ConstructionState(
                    workload,
                    self._optimizer,
                    self._reconfiguration,
                    self._baseline,
                    max_width=self._max_width,
                    n_best_singles=self._n_best_singles,
                    pair_seeds=self._pair_seeds,
                    evaluation=self._evaluation,
                )

            steps: list[ConstructionStep] = []
            missed: list[tuple[tuple[int, ...], int]] = []

            while self._max_steps is None or len(steps) < self._max_steps:
                if deadline.expired:
                    status = STATUS_DEGRADED
                    break
                step_number = len(steps) + 1
                step_calls = statistics.calls
                step_hits = statistics.cache_hits
                with tracer.span(
                    "extend.step", step=step_number
                ) as step_span:
                    state.materialize_branches(missed, self._missed_budget)
                    remaining = budget - state.memory
                    if self._skip_oversized:
                        best, runners_up = state.best_move(
                            self._missed_budget, max_memory_delta=remaining
                        )
                        if best is None:
                            step_span.annotate("outcome", "exhausted")
                            break
                    else:
                        best, runners_up = state.best_move(
                            self._missed_budget
                        )
                        if best is None:
                            step_span.annotate("outcome", "exhausted")
                            break
                        if best[0].memory_delta > remaining:
                            step_span.annotate("outcome", "over-budget")
                            break
                    move, benefit = best
                    step = state.apply(move, benefit, step_number)
                    steps.append(step)
                    step_span.annotate("outcome", "applied")
                    step_span.annotate("kind", step.kind.value)
                    step_span.annotate(
                        "whatif_calls", statistics.calls - step_calls
                    )
                    step_span.annotate(
                        "cache_hits", statistics.cache_hits - step_hits
                    )
                for runner, _, _ in runners_up:
                    if runner.kind is StepKind.EXTEND and runner.old_index:
                        missed.append(
                            (
                                runner.old_index.attributes,
                                runner.new_index.attributes[-1],
                            )
                        )
                if telemetry.enabled:
                    self._emit_step_events(
                        telemetry,
                        step,
                        state.priced_rivals(_REJECTED_LOG_COUNT),
                        whatif_calls=statistics.calls - step_calls,
                        cache_hits=statistics.cache_hits - step_hits,
                        candidates=state.last_candidates_considered,
                    )
                if self._prune_unused:
                    pruned = state.prune_unused(len(steps) + 1)
                    steps.extend(pruned)
                    if telemetry.enabled:
                        for removal in pruned:
                            telemetry.emit_step(
                                self._removal_event(removal)
                            )

            state.close()
            runtime = time.perf_counter() - started
            configuration = state.configuration
            reconfiguration_cost = self._reconfiguration.cost(
                workload.schema, configuration, self._baseline
            )
            if telemetry.enabled:
                run_span.annotate("steps", len(steps))
                run_span.annotate("status", status)
                run_span.annotate("total_cost", state.total_cost)
                run_span.annotate("memory", state.memory)
                telemetry.metrics.gauge("extend.memory").set(state.memory)
                telemetry.metrics.gauge("extend.total_cost").set(
                    state.total_cost
                )
                telemetry.metrics.counter(
                    "extend.whatif_calls"
                ).increment(statistics.calls - calls_before)
                telemetry.metrics.publish("whatif", statistics)
                telemetry.metrics.publish(
                    "evaluation", state.evaluation_statistics
                )
        return ExtendResult(
            algorithm=self.name,
            configuration=configuration,
            total_cost=state.total_cost,
            memory=state.memory,
            budget=budget,
            runtime_seconds=runtime,
            whatif_calls=statistics.calls - calls_before,
            reconfiguration_cost=reconfiguration_cost,
            steps=tuple(steps),
            status=status,
        )

    def _emit_step_events(
        self,
        telemetry: Telemetry,
        step: ConstructionStep,
        rivals: list[tuple[CandidateMove, float, float]],
        *,
        whatif_calls: int,
        cache_hits: int,
        candidates: int,
    ) -> None:
        """One chosen event for the applied step, plus its best rejected
        rivals among the moves the step priced (estimated benefit, no
        before/after state — they never happened)."""
        assert step.index_after is not None
        telemetry.metrics.counter("extend.steps").increment()
        telemetry.emit_step(
            StepEvent(
                algorithm=self.name,
                step_number=step.step_number,
                action=step.kind.value,
                table=step.index_after.table_name,
                index_before=(
                    step.index_before.attributes
                    if step.index_before
                    else None
                ),
                index_after=step.index_after.attributes,
                chosen=True,
                benefit=step.benefit,
                memory_delta=step.memory_delta,
                ratio=step.ratio,
                cost_before=step.cost_before,
                cost_after=step.cost_after,
                memory_before=step.memory_before,
                memory_after=step.memory_after,
                whatif_calls=whatif_calls,
                cache_hits=cache_hits,
                candidates_considered=candidates,
            )
        )
        for runner, benefit, ratio in rivals:
            telemetry.emit_step(
                StepEvent(
                    algorithm=self.name,
                    step_number=step.step_number,
                    action=runner.kind.value,
                    table=runner.new_index.table_name,
                    index_before=(
                        runner.old_index.attributes
                        if runner.old_index
                        else None
                    ),
                    index_after=runner.new_index.attributes,
                    chosen=False,
                    benefit=benefit,
                    memory_delta=runner.memory_delta,
                    ratio=ratio,
                )
            )

    def _removal_event(self, step: ConstructionStep) -> StepEvent:
        """Chosen event for a Remark 1 (2) prune (REMOVE) step."""
        assert step.index_before is not None
        return StepEvent(
            algorithm=self.name,
            step_number=step.step_number,
            action=step.kind.value,
            table=step.index_before.table_name,
            index_before=step.index_before.attributes,
            index_after=None,
            chosen=True,
            benefit=step.benefit,
            memory_delta=step.memory_delta,
            ratio=step.ratio,
            cost_before=step.cost_before,
            cost_after=step.cost_after,
            memory_before=step.memory_before,
            memory_after=step.memory_after,
        )


class _ConstructionState:
    """Mutable state of one Extend run."""

    def __init__(
        self,
        workload: Workload,
        optimizer: WhatIfOptimizer,
        reconfiguration: ReconfigurationModel,
        baseline: IndexConfiguration,
        *,
        max_width: int | None,
        n_best_singles: int | None,
        pair_seeds: bool,
        evaluation: EvaluationConfig,
    ) -> None:
        self._workload = workload
        self._schema = workload.schema
        self._optimizer = optimizer
        self._reconfiguration = reconfiguration
        self._baseline = baseline
        self._max_width = max_width

        queries = workload.queries
        self._queries = queries
        self._weights = np.array(
            [query.frequency for query in queries], dtype=np.float64
        )
        self._current = optimizer.sequential_costs(queries)
        self._best_index: list[Index | None] = [None] * len(queries)

        # Inverted lists: attribute id -> positions of queries using it.
        self._queries_with = Applicability(queries).by_attribute
        self._query_attribute_sets = [
            query.attributes for query in queries
        ]

        self._writes = WriteLoad(queries)

        self._selected: set[Index] = set(baseline)
        self.memory = sum(
            index_memory(self._schema, index) for index in self._selected
        )
        self._maintenance_total = sum(
            query.frequency * optimizer.maintenance_cost(query, index)
            for query in self._writes.queries
            for index in self._selected
        )
        if self._selected:
            for position, query in enumerate(queries):
                # Read/locate part only; maintenance is tracked in
                # self._maintenance_total.
                cost = min(
                    (
                        optimizer.index_cost(query, index)
                        for index in self._selected
                        if index.is_applicable_to(query)
                    ),
                    default=self._current[position],
                )
                if cost < self._current[position]:
                    self._current[position] = cost

        self.last_candidates_considered = 0
        self._table = BenefitTable(naive=evaluation.naive)
        self._single_moves: dict[int, CandidateMove] = {}
        # Pending extensions of each selected index, by appended attribute.
        self._extension_moves: dict[Index, dict[int, CandidateMove]] = {}
        self._branch_moves: dict[
            tuple[tuple[int, ...], int], CandidateMove
        ] = {}
        # Positions of the queries containing all of a selected index's
        # attributes: an extension by ``a`` affects exactly those that
        # also contain ``a``.  Kept from the move that created the index.
        self._positions: dict[Index, np.ndarray] = {
            index: self._positions_containing(frozenset(index.attributes))
            for index in self._selected
        }
        self._seed_singles(n_best_singles)
        if pair_seeds:
            self._seed_pairs()
        for index in self._selected:
            self._add_extension_moves(index)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    @property
    def configuration(self) -> IndexConfiguration:
        """The current selection ``I``."""
        return IndexConfiguration(self._selected)

    @property
    def total_cost(self) -> float:
        """Current workload cost ``F(I)`` including index maintenance."""
        return (
            float(np.dot(self._weights, self._current))
            + self._maintenance_total
        )

    @property
    def evaluation_statistics(self):
        """Engine counters of this run (``evaluation.*`` gauges)."""
        return self._table.statistics

    def close(self) -> None:
        """Finalize the engine (fold never-priced moves into stats)."""
        self._table.close()

    def _maintenance_delta(
        self, new_index: Index, old_index: Index | None = None
    ) -> float:
        """Frequency-weighted maintenance added by a move (only writes
        to the index's table maintain it)."""
        total = 0.0
        for query in self._writes.on(new_index.table_name):
            delta = self._optimizer.maintenance_cost(query, new_index)
            if old_index is not None:
                delta -= self._optimizer.maintenance_cost(
                    query, old_index
                )
            total += query.frequency * delta
        return total

    # ------------------------------------------------------------------
    # Move pools
    # ------------------------------------------------------------------

    def _seed_singles(self, n_best: int | None) -> None:
        accessed = sorted(self._queries_with)
        moves: list[CandidateMove] = []
        for attribute_id in accessed:
            move = self._build_single_move(attribute_id)
            if move is not None:
                moves.append(move)
        if n_best is not None and len(moves) > n_best:
            # Remark 1 (1) ranks seeds by their *initial* exact ratio, so
            # every single must be priced up front in both engine modes.
            for move in moves:
                move.price()
            moves.sort(
                key=lambda move: -(
                    move.benefit(self._current) / move.memory_delta
                )
            )
            moves = moves[:n_best]
        for move in moves:
            self._single_moves[move.new_index.leading_attribute] = move
            self._table.register(move)

    def _seed_pairs(self) -> None:
        """Remark 1 (4): canonical two-attribute seed indexes."""
        seen: set[frozenset[int]] = set()
        for query in self._queries:
            attributes = sorted(query.attributes)
            for first_position in range(len(attributes)):
                for second_position in range(
                    first_position + 1, len(attributes)
                ):
                    pair = frozenset(
                        (
                            attributes[first_position],
                            attributes[second_position],
                        )
                    )
                    if pair in seen:
                        continue
                    seen.add(pair)
                    index = canonical_index(self._schema, pair)
                    if index in self._selected:
                        continue
                    move = self._build_set_move(
                        StepKind.NEW_PAIR, index, frozenset(pair)
                    )
                    if move is not None:
                        key = (index.attributes[:-1], index.attributes[-1])
                        if key not in self._branch_moves:
                            self._branch_moves[key] = move
                            self._table.register(move)

    def _pricer(self, index: Index, positions: np.ndarray):
        """Deferred what-if pricing of ``index`` for the affected queries.

        Bound eagerly (no late-binding hazard); runs at most once per
        move, only if the move's optimistic bound earns a pricing call.
        """
        optimizer = self._optimizer
        queries = self._queries

        def price() -> np.ndarray:
            # Affected positions always contain the index's leading
            # attribute (by construction), so these are exactly the
            # applicable pairs index_cost would price.
            return optimizer.pair_costs(
                [(queries[position], index) for position in positions]
            )

        return price

    def _build_single_move(self, attribute_id: int) -> CandidateMove | None:
        index = Index.of(self._schema, (attribute_id,))
        if index in self._selected:
            return None
        positions = self._queries_with[attribute_id]
        return CandidateMove(
            StepKind.NEW_SINGLE,
            None,
            index,
            index_memory(self._schema, index),
            positions,
            self._weights[positions],
            self._reconfiguration.creation_cost(self._schema, index),
            self._maintenance_delta(index),
            pricer=self._pricer(index, positions),
        )

    def _build_set_move(
        self, kind: StepKind, index: Index, required: frozenset[int]
    ) -> CandidateMove | None:
        """A move creating ``index`` afresh, affecting queries ⊇ required."""
        positions = self._positions_containing(required)
        if positions.size == 0:
            return None
        return CandidateMove(
            kind,
            None,
            index,
            index_memory(self._schema, index),
            positions,
            self._weights[positions],
            self._reconfiguration.creation_cost(self._schema, index),
            self._maintenance_delta(index),
            pricer=self._pricer(index, positions),
        )

    def _positions_containing(self, required: frozenset[int]) -> np.ndarray:
        """Positions of queries whose attribute set contains ``required``."""
        lists = []
        for attribute_id in required:
            positions = self._queries_with.get(attribute_id)
            if positions is None:
                return np.empty(0, dtype=np.intp)
            lists.append(positions)
        lists.sort(key=len)
        result = lists[0]
        for other in lists[1:]:
            result = np.intersect1d(result, other, assume_unique=True)
            if result.size == 0:
                break
        return result

    def _add_extension_moves(self, index: Index) -> None:
        """Offer appending every same-table attribute to ``index``."""
        if self._max_width is not None and index.width >= self._max_width:
            return
        table = self._schema.table(index.table_name)
        positions = self._positions[index]
        indexed = set(index.attributes)
        moves = self._extension_moves.setdefault(index, {})
        for attribute in table.attributes:
            if attribute.id in indexed:
                continue
            queries_with = self._queries_with.get(attribute.id)
            if queries_with is None:
                continue
            move = self._build_extension_move(
                index,
                attribute.id,
                np.intersect1d(positions, queries_with, assume_unique=True),
                attribute.value_size * table.row_count,
            )
            if move is not None:
                stale = moves.get(attribute.id)
                if stale is not None:
                    self._table.retire(stale)
                moves[attribute.id] = move
                self._table.register(move)

    def _retire_extension_moves(self, index: Index) -> None:
        """Drop the pending extensions of an index leaving the selection."""
        for move in self._extension_moves.pop(index, {}).values():
            self._table.retire(move)

    def _build_extension_move(
        self,
        index: Index,
        attribute_id: int,
        positions: np.ndarray,
        memory_delta: int,
    ) -> CandidateMove | None:
        """Appending ``attribute_id`` to ``index``, which affects the
        queries at ``positions`` and adds the appended value column's
        ``memory_delta`` bytes (Appendix B(ii))."""
        extended = index.extended_by(attribute_id)
        if extended in self._selected or positions.size == 0:
            return None
        reconfiguration_delta = self._reconfiguration.creation_cost(
            self._schema, extended
        ) - self._reconfiguration.creation_cost(self._schema, index)
        if index in self._baseline:
            # Morphing a pre-existing index means dropping it and
            # building the extended one from scratch.
            reconfiguration_delta = self._reconfiguration.creation_cost(
                self._schema, extended
            ) + self._reconfiguration.drop_cost(self._schema, index)
        return CandidateMove(
            StepKind.EXTEND,
            index,
            extended,
            memory_delta,
            positions,
            self._weights[positions],
            reconfiguration_delta,
            self._maintenance_delta(extended, index),
            pricer=self._pricer(extended, positions),
        )

    def materialize_branches(
        self,
        missed: list[tuple[tuple[int, ...], int]],
        budget: int,
    ) -> None:
        """Turn stored missed opportunities into branch moves.

        A missed extension ``(k, i)`` becomes actionable once ``k`` itself
        is no longer selected (it was morphed in another direction): the
        branch re-creates ``k·i`` as a separate index, re-estimating its
        impact (the paper notes re-estimation may be necessary — our
        what-if facade simply prices the new index).
        """
        if budget == 0 or not missed:
            return
        still_pending: list[tuple[tuple[int, ...], int]] = []
        for prefix_attributes, attribute_id in missed:
            key = (prefix_attributes, attribute_id)
            if key in self._branch_moves:
                continue
            prefix_index = Index(
                self._schema.attribute(prefix_attributes[0]).table_name,
                prefix_attributes,
            )
            if prefix_index in self._selected:
                still_pending.append(key)
                continue  # the normal extension move still exists
            branch_index = Index(
                prefix_index.table_name,
                prefix_attributes + (attribute_id,),
            )
            if branch_index in self._selected:
                continue
            if any(
                branch_index.is_prefix_of(selected)
                for selected in self._selected
            ):
                continue
            move = self._build_set_move(
                StepKind.BRANCH,
                branch_index,
                frozenset(branch_index.attributes),
            )
            if move is not None:
                self._branch_moves[key] = move
                self._table.register(move)
        missed[:] = still_pending

    # ------------------------------------------------------------------
    # Step selection and application
    # ------------------------------------------------------------------

    def best_move(
        self,
        runner_up_count: int = 0,
        max_memory_delta: float | None = None,
    ) -> tuple[
        tuple[CandidateMove, float] | None,
        list[tuple[CandidateMove, float, float]],
    ]:
        """The move with the best benefit/memory ratio, plus runners-up.

        Delegates to the :class:`~repro.core.evaluation.BenefitTable`:
        only moves with strictly positive net benefit qualify; when
        ``max_memory_delta`` is given, moves that would not fit the
        remaining budget are skipped.  Ties on the ratio are broken by
        larger absolute benefit, then by the deterministic move key.
        Runners-up come back as ``(move, benefit, ratio)`` so callers
        (missed-opportunity tracking, step-event logging) need not
        re-price them; :attr:`last_candidates_considered` records how
        many pooled moves were in contention for this decision.
        """
        self.last_candidates_considered = len(self._table)
        return self._table.best(
            self._current, runner_up_count, max_memory_delta
        )

    def priced_rivals(
        self, count: int
    ) -> list[tuple[CandidateMove, float, float]]:
        """The last :meth:`best_move` winner's best rivals among the
        moves already priced (no pricing; see
        :meth:`~repro.core.evaluation.BenefitTable.priced_rivals`)."""
        return self._table.priced_rivals(count)

    def apply(
        self, move: CandidateMove, benefit: float, step_number: int
    ) -> ConstructionStep:
        """Apply a chosen move and return the recorded step."""
        cost_before = self.total_cost + self._baseline_reconfiguration()
        memory_before = self.memory

        if move.kind is StepKind.EXTEND:
            assert move.old_index is not None
            self._selected.discard(move.old_index)
            self._selected.add(move.new_index)
            del self._positions[move.old_index]
            # Retire moves extending the morphed index (the applied
            # move itself is among them).
            self._retire_extension_moves(move.old_index)
            # Queries that relied on the old index (all of them contain
            # its leading attribute) now rely on the new one (same
            # usable prefix, same cost).
            best_index = self._best_index
            for position in self._queries_with[
                move.old_index.leading_attribute
            ].tolist():
                if best_index[position] == move.old_index:
                    best_index[position] = move.new_index
        else:
            self._selected.add(move.new_index)
            if move.kind is StepKind.NEW_SINGLE:
                self._single_moves.pop(
                    move.new_index.leading_attribute, None
                )
            else:
                for key in [
                    key
                    for key, pending in self._branch_moves.items()
                    if pending is move
                ]:
                    del self._branch_moves[key]
            self._table.retire(move)

        self.memory += move.memory_delta
        self._maintenance_total += move.maintenance_penalty
        self._positions[move.new_index] = move.positions

        improved = move.costs < self._current[move.positions]
        improved_positions = move.positions[improved]
        self._current[improved_positions] = move.costs[improved]
        for position in improved_positions:
            self._best_index[int(position)] = move.new_index

        # Dirty set: only candidates touching a query whose current
        # cost just changed need re-evaluation next round.
        self._table.invalidate(improved_positions)

        self._add_extension_moves(move.new_index)

        cost_after = self.total_cost + self._baseline_reconfiguration()
        return ConstructionStep(
            step_number=step_number,
            kind=move.kind,
            index_before=move.old_index,
            index_after=move.new_index,
            cost_before=cost_before,
            cost_after=cost_after,
            memory_before=memory_before,
            memory_after=self.memory,
        )

    def _baseline_reconfiguration(self) -> float:
        if self._reconfiguration.is_free:
            return 0.0
        return self._reconfiguration.cost(
            self._schema, self._selected, self._baseline
        )

    def prune_unused(self, next_step_number: int) -> list[ConstructionStep]:
        """Remark 1 (2): drop selected indexes no query relies on.

        An index is unused when it is not the cost-determining index of
        any query.  Removing it frees memory without changing costs.
        Baseline indexes are kept (dropping them is a reconfiguration
        decision, not a cleanup).
        """
        used = {index for index in self._best_index if index is not None}
        removable = [
            index
            for index in sorted(
                self._selected,
                key=lambda index: (index.table_name, index.attributes),
            )
            if index not in used and index not in self._baseline
        ]
        steps: list[ConstructionStep] = []
        for index in removable:
            cost_before = self.total_cost + self._baseline_reconfiguration()
            memory_before = self.memory
            self._selected.discard(index)
            del self._positions[index]
            self.memory -= index_memory(self._schema, index)
            self._maintenance_total -= self._maintenance_delta(index)
            self._retire_extension_moves(index)
            steps.append(
                ConstructionStep(
                    step_number=next_step_number + len(steps),
                    kind=StepKind.REMOVE,
                    index_before=index,
                    index_after=None,
                    cost_before=cost_before,
                    cost_after=self.total_cost
                    + self._baseline_reconfiguration(),
                    memory_before=memory_before,
                    memory_after=self.memory,
                )
            )
        return steps
