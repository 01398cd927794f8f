"""Incremental candidate-evaluation engine for constructive selection.

The naive inner loop of Algorithm 1 (and of the swap local search and
the H4/H5 greedy fills) re-prices *every* candidate step against the
*entire* workload on every round — exactly the per-step cost pattern
CoPhy amortizes via its atomic-cost decomposition and that production
advisors avoid by only re-costing queries affected by a configuration
change.  This module provides the shared machinery that makes step
evaluation incremental:

* :class:`CandidateMove` — a potential construction step whose what-if
  costs are fetched *lazily*: until priced, an admissible optimistic
  bound (every affected query's cost drops to zero) stands in for the
  exact benefit.
* :class:`BenefitTable` — the per-round benefit table keyed by
  ``(candidate, query)``: after a step is applied, only entries whose
  query's current cost changed (computed from the query/attribute
  overlap of the applied index) are invalidated and re-evaluated; all
  other candidates keep their cached benefit.  Candidates are priced
  against the backend only once their optimistic bound could beat the
  currently best exactly-priced candidate — everything else never
  triggers a ``CostSource.query_cost`` call at all.
* :class:`EvaluationConfig` / :class:`EvaluationStatistics` — the
  ``naive`` differential-testing oracle switch and the ``evaluation.*``
  telemetry counters (invalidations, reuse rate, rounds, priced
  candidates).
* :func:`price_columns` — batch pricing of per-query cost columns,
  used by the performance heuristics.

**Equivalence guarantee.**  The engine selects the *identical* step as
the naive exhaustive re-scan: cached benefits are exact (an entry is
only reused when no affected query's cost changed), the pricing bound is
admissible (``f_j(k) >= 0`` so the true benefit never exceeds the
bound), and every candidate whose bound ties or beats the best priced
candidate is priced exactly before the winner is declared — so ties
break on the same deterministic keys as the naive loop.  The
``naive=True`` escape hatch keeps the pre-change exhaustive loop
available for differential testing (see
``tests/core/test_evaluation_properties.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.cost.whatif import Applicability
from repro.indexes.index import Index

__all__ = [
    "CandidateMove",
    "BenefitTable",
    "EvaluationConfig",
    "EvaluationStatistics",
    "price_columns",
]

@dataclass(frozen=True)
class EvaluationConfig:
    """Knobs of the candidate-evaluation engine.

    Parameters
    ----------
    naive:
        ``True`` restores the pre-engine behavior exactly: every
        candidate is priced eagerly at construction and re-evaluated
        against the full workload every round.  Kept as the
        differential-testing oracle the tests and
        ``benchmarks/bench_evaluation.py`` build directly.
    """

    naive: bool = False


@dataclass
class EvaluationStatistics:
    """Counters of one engine run (telemetry-bridgeable).

    ``evaluations``/``reused`` count benefit-table entries recomputed
    versus served from cache across all rounds; ``invalidations`` counts
    dirty-set hits; ``priced_candidates``/``pruned_candidates`` count
    moves that were exactly priced against the what-if backend versus
    moves whose optimistic bound never justified pricing.
    """

    rounds: int = 0
    evaluations: int = 0
    reused: int = 0
    invalidations: int = 0
    priced_candidates: int = 0
    pruned_candidates: int = 0

    @property
    def reuse_rate(self) -> float:
        """Share of benefit evaluations served from the table."""
        total = self.evaluations + self.reused
        return self.reused / total if total else 0.0


class CandidateMove:
    """A potential construction step with lazily fetched what-if costs.

    ``costs`` holds the per-affected-query cost vector once priced;
    until then ``pricer`` can produce it on demand and
    :meth:`upper_bound` gives an admissible optimistic benefit (as if
    every affected query's cost dropped to zero).
    """

    __slots__ = (
        "kind",
        "old_index",
        "new_index",
        "memory_delta",
        "positions",
        "costs",
        "weights",
        "reconfiguration_delta",
        "maintenance_penalty",
        "_pricer",
    )

    def __init__(
        self,
        kind,
        old_index: Index | None,
        new_index: Index,
        memory_delta: int,
        positions: np.ndarray,
        weights: np.ndarray,
        reconfiguration_delta: float,
        maintenance_penalty: float = 0.0,
        *,
        costs: np.ndarray | None = None,
        pricer: Callable[[], np.ndarray] | None = None,
    ) -> None:
        self.kind = kind
        self.old_index = old_index
        self.new_index = new_index
        self.memory_delta = memory_delta
        self.positions = positions
        self.costs = costs
        self.weights = weights
        self.reconfiguration_delta = reconfiguration_delta
        self.maintenance_penalty = maintenance_penalty
        self._pricer = pricer

    @property
    def priced(self) -> bool:
        """True once the what-if cost vector has been fetched."""
        return self.costs is not None

    def price(self) -> None:
        """Fetch the what-if costs (idempotent; at most one fetch)."""
        if self.costs is None:
            assert self._pricer is not None
            self.costs = self._pricer()
            self._pricer = None

    def benefit(self, current_costs: np.ndarray) -> float:
        """Net reduction of ``F + R`` if this move were applied now.

        Subtracts the reconfiguration delta and, for workloads with
        writes, the frequency-weighted index-maintenance penalty the
        move would introduce.  Requires the move to be priced.
        """
        reduction = current_costs[self.positions] - self.costs
        np.maximum(reduction, 0.0, out=reduction)
        return (
            float(np.dot(self.weights, reduction))
            - self.reconfiguration_delta
            - self.maintenance_penalty
        )

    def upper_bound(self, current_costs: np.ndarray) -> float:
        """Admissible optimistic benefit of an unpriced move.

        No index can price a query below zero, so the reduction per
        affected query is at most its full current cost; the bound
        therefore never underestimates :meth:`benefit`.
        """
        return (
            float(
                np.dot(self.weights, current_costs[self.positions])
            )
            - self.reconfiguration_delta
            - self.maintenance_penalty
        )

    def sort_key(self) -> tuple:
        """Deterministic tie-breaker across moves of equal ratio."""
        return (
            self.kind.value,
            self.new_index.table_name,
            self.new_index.attributes,
        )


class _Entry:
    """One benefit-table row: cached value plus freshness flag.

    ``value`` is the exact benefit for priced moves and the admissible
    upper bound for unpriced ones; ``dirty`` marks it stale with respect
    to the current per-query cost vector.  ``sequence`` is the
    registration order (the tie-breaker among equal bound ratios) and
    ``stamp`` tells the entry's current item in the bound heap from
    outdated ones: an item whose stamp differs is skipped.  The entry
    never refers to its heap items, so a run's moves are freed by
    reference counting alone.
    """

    __slots__ = ("move", "value", "dirty", "sequence", "stamp")

    def __init__(self, move: CandidateMove, sequence: int) -> None:
        self.move = move
        self.value = 0.0
        self.dirty = True
        self.sequence = sequence
        self.stamp = 0


class BenefitTable:
    """Incremental benefit table over the candidate-move pool.

    The table owns the selection inner loop: it caches per-candidate
    benefits, invalidates only the entries whose affected queries
    changed cost (the *dirty set*), and defers backend pricing of a
    candidate until its optimistic bound could actually win a round.

    ``naive=True`` degrades the table to the pre-engine exhaustive
    re-scan (eager pricing at registration, full re-evaluation per
    round) — the differential-testing escape hatch.
    """

    def __init__(
        self,
        *,
        naive: bool = False,
        statistics: EvaluationStatistics | None = None,
    ) -> None:
        self._naive = naive
        self._entries: dict[CandidateMove, _Entry] = {}
        self._by_position: dict[int, list[CandidateMove]] = {}
        # Incremental partitions of ``_entries`` (insertion-ordered sets
        # via dict keys) so the selection loop never re-scans the whole
        # pool: entries move between ``_unpriced`` and ``_priced``
        # exactly once (at pricing), and ``_dirty`` tracks staleness.
        self._dirty: dict[_Entry, None] = {}
        self._unpriced: dict[_Entry, None] = {}
        self._priced: dict[_Entry, None] = {}
        # Min-heap of ``(-bound ratio, sequence, stamp, entry)`` over the
        # unpriced entries with a positive bound: the accelerated lazy
        # greedy order (Minoux 1978).  Every such entry has exactly one
        # current item between rounds; re-scoring an entry pushes a new
        # item and outdates the old one by bumping the entry's stamp.
        self._bounds: list[tuple[float, int, int, _Entry]] = []
        self._registered = 0
        # The last :meth:`best` call's ranking, best first, as
        # ``(ratio, benefit, move)`` (see :meth:`priced_rivals`).
        self._ranking: list[tuple[float, float, CandidateMove]] = []
        self.statistics = statistics or EvaluationStatistics()

    # ------------------------------------------------------------------
    # Pool membership
    # ------------------------------------------------------------------

    def register(self, move: CandidateMove) -> None:
        """Add a candidate move (initially dirty, possibly unpriced)."""
        entry = _Entry(move, self._registered)
        self._registered += 1
        self._entries[move] = entry
        if self._naive:
            move.price()
            return
        self._dirty[entry] = None
        if move.costs is not None:
            self._priced[entry] = None
        else:
            self._unpriced[entry] = None
        for position in move.positions:
            self._by_position.setdefault(int(position), []).append(move)

    def retire(self, move: CandidateMove) -> None:
        """Drop a candidate move from the table."""
        entry = self._entries.pop(move, None)
        if entry is None:
            return
        if self._naive:
            return
        entry.stamp += 1  # outdates its heap item
        self._dirty.pop(entry, None)
        self._unpriced.pop(entry, None)
        self._priced.pop(entry, None)
        for position in move.positions:
            bucket = self._by_position.get(int(position))
            if bucket is not None:
                try:
                    bucket.remove(move)
                except ValueError:
                    pass

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, move: CandidateMove) -> bool:
        return move in self._entries

    def moves(self) -> Iterable[CandidateMove]:
        """All pooled moves, in registration order."""
        return self._entries.keys()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate(self, changed_positions: Iterable[int]) -> None:
        """Mark entries overlapping the changed queries as dirty.

        ``changed_positions`` are the workload positions whose current
        cost just changed (the queries the applied index improved —
        exactly the queries sharing the changed table/attribute
        prefix).  Entries whose affected-query set is disjoint keep
        their cached benefit.
        """
        if self._naive:
            return
        invalidated = 0
        for position in changed_positions:
            for move in self._by_position.get(int(position), ()):
                entry = self._entries.get(move)
                if entry is not None and not entry.dirty:
                    entry.dirty = True
                    self._dirty[entry] = None
                    invalidated += 1
        self.statistics.invalidations += invalidated

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def best(
        self,
        current: np.ndarray,
        runner_up_count: int = 0,
        max_memory_delta: float | None = None,
    ) -> tuple[
        tuple[CandidateMove, float] | None,
        list[tuple[CandidateMove, float, float]],
    ]:
        """The move with the best benefit/memory ratio, plus runners-up.

        Mirrors the naive exhaustive scan exactly: only moves with
        strictly positive net benefit qualify; with ``max_memory_delta``
        moves that would not fit the remaining budget are skipped; ties
        on the ratio break by larger absolute benefit, then by the
        deterministic move key.  Runners-up come back as
        ``(move, benefit, ratio)``.
        """
        self.statistics.rounds += 1
        if self._naive:
            return self._best_naive(
                current, runner_up_count, max_memory_delta
            )

        self._refresh(current)
        needed = runner_up_count + 1

        # Price lazily: keep pricing the optimistically best unpriced
        # candidates until every remaining bound falls strictly below
        # the ``needed``-th best exactly-priced ratio — from then on no
        # unpriced move can appear among (or tie into) the winners.
        # ``top`` is a min-heap of the ``needed`` best qualifying priced
        # ratios, so its root is that threshold.  Pricing only adds
        # priced entries, so the threshold is monotonically
        # non-decreasing within one call, and the contenders come off
        # the bound heap best first, in batches of ``needed`` — the
        # classic lazy-greedy minimum.  Moves that do not fit the
        # remaining budget are parked for the call and pushed back
        # after it: a later round may have more room (``prune_unused``
        # frees memory).
        limit = float("inf") if max_memory_delta is None else max_memory_delta
        top = heapq.nlargest(
            needed,
            (
                entry.value / entry.move.memory_delta
                for entry in self._priced
                if entry.value > 0.0 and entry.move.memory_delta <= limit
            ),
        )
        heapq.heapify(top)
        threshold = top[0] if len(top) == needed else float("-inf")
        bounds = self._bounds
        parked = []
        while True:
            batch: list[_Entry] = []
            while bounds and len(batch) < needed:
                negated_ratio, _, stamp, entry = bounds[0]
                if stamp != entry.stamp:
                    heapq.heappop(bounds)  # outdated item
                    continue
                if -negated_ratio < threshold:
                    break
                item = heapq.heappop(bounds)
                if entry.move.memory_delta > limit:
                    parked.append(item)
                else:
                    batch.append(entry)
            if not batch:
                break
            self._price(batch, current)
            for entry in batch:
                if entry.value > 0.0 and entry.move.memory_delta <= limit:
                    ratio = entry.value / entry.move.memory_delta
                    if len(top) < needed:
                        heapq.heappush(top, ratio)
                    elif ratio > top[0]:
                        heapq.heapreplace(top, ratio)
            if len(top) == needed:
                threshold = top[0]
        for item in parked:
            heapq.heappush(bounds, item)

        return self._pick(current, runner_up_count, max_memory_delta)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _best_naive(
        self,
        current: np.ndarray,
        runner_up_count: int,
        max_memory_delta: float | None,
    ):
        """The pre-engine exhaustive re-scan, bit for bit."""
        scored: list[tuple[float, float, CandidateMove]] = []
        for move in self._entries:
            if (
                max_memory_delta is not None
                and move.memory_delta > max_memory_delta
            ):
                continue
            benefit = move.benefit(current)
            self.statistics.evaluations += 1
            if benefit <= 0.0:
                continue
            scored.append((benefit / move.memory_delta, benefit, move))
        return self._rank(scored, runner_up_count)

    def _refresh(self, current: np.ndarray) -> None:
        """Re-evaluate dirty entries; reuse everything else.

        Priced entries get their exact benefit, unpriced ones their
        admissible bound.  Clean entries are exact by the invalidation
        invariant: none of their affected queries changed cost since
        the last evaluation.
        """
        dirty = list(self._dirty)
        self.statistics.evaluations += len(dirty)
        self.statistics.reused += len(self._entries) - len(dirty)
        bounds = self._bounds
        for entry in dirty:
            move = entry.move
            entry.dirty = False
            if move.costs is not None:
                entry.value = move.benefit(current)
                continue
            bound = move.upper_bound(current)
            if bound == entry.value:
                continue  # its heap item (if any) is still current
            entry.value = bound
            entry.stamp += 1
            if bound > 0.0:
                heapq.heappush(
                    bounds,
                    (
                        -(bound / move.memory_delta),
                        entry.sequence,
                        entry.stamp,
                        entry,
                    ),
                )
        self._dirty.clear()

    def _price(
        self, batch: Sequence[_Entry], current: np.ndarray
    ) -> None:
        """Exactly price a batch of optimistic entries."""
        self.statistics.priced_candidates += len(batch)
        for entry in batch:
            entry.move.price()
            entry.value = entry.move.benefit(current)
            self._unpriced.pop(entry, None)
            self._priced[entry] = None

    def _pick(
        self,
        current: np.ndarray,
        runner_up_count: int,
        max_memory_delta: float | None,
    ):
        # ``_rank`` sorts on a unique key, so the scan order is free.
        scored = [
            (entry.value / entry.move.memory_delta, entry.value, entry.move)
            for entry in self._priced
            if entry.value > 0.0
            and (
                max_memory_delta is None
                or entry.move.memory_delta <= max_memory_delta
            )
        ]
        return self._rank(scored, runner_up_count)

    def _rank(
        self,
        scored: list[tuple[float, float, CandidateMove]],
        runner_up_count: int,
    ):
        scored.sort(
            key=lambda entry: (-entry[0], -entry[1], entry[2].sort_key())
        )
        self._ranking = scored
        if not scored:
            return None, []
        best_ratio, best_benefit, best = scored[0]
        runners_up = [
            (entry[2], entry[1], entry[0])
            for entry in scored[1 : 1 + runner_up_count]
        ]
        return (best, best_benefit), runners_up

    def priced_rivals(
        self, count: int
    ) -> list[tuple[CandidateMove, float, float]]:
        """The last winner's ``count`` best rivals, without pricing.

        Ranked like :meth:`best`'s runners-up, but drawn only from the
        moves that call had already priced (every move in naive mode):
        the first ``runner_up_count`` of them are exactly the
        runners-up it returned, any further ones the best of the moves
        the lazy loop happened to price.  Extend logs these as its
        rejected step events, so turning telemetry on never prices a
        move the selection itself does not need.
        """
        return [
            (move, benefit, ratio)
            for ratio, benefit, move in self._ranking[1 : 1 + count]
        ]

    def pending_candidates(self) -> int:
        """Moves still unpriced (each saved its backend pricing calls)."""
        if not self._naive:
            return len(self._unpriced)
        return sum(
            1 for move in self._entries if not move.priced
        )

    def close(self) -> None:
        """Finalize the pruned-candidate counter (idempotent-ish:
        call once, at the natural end of a run)."""
        self.statistics.pruned_candidates += self.pending_candidates()


def price_columns(
    optimizer, queries: Sequence, indexes: Iterable[Index]
) -> None:
    """Warm the what-if facade for every applicable ``(query, index)``.

    Used by the performance heuristics, which need full per-query cost
    columns for many candidates before their (serial, deterministic)
    ranking loops: those loops then run on pure cache hits.  Pairs are
    priced in bounded batches (:meth:`Applicability.price`); the facade
    accounting matches the per-pair loop exactly on every backend.
    """
    for _ in Applicability(queries).price(optimizer, dict.fromkeys(indexes)):
        pass
