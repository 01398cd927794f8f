"""Compiled, vectorized cost kernel: batch Appendix B evaluation.

The scalar :class:`~repro.cost.model.CostModel` walks the Appendix B(i)
formulas query by query in pure Python — after the incremental
evaluation engine trimmed the *number* of what-if calls, that per-call
interpretation is the remaining hot path on enterprise-scale workloads
(and the whole cost of CoPhy-style ``cost_table`` pre-computation).
This module compiles a workload once into flat numpy arrays and then
prices *many (query, index) pairs per call* as batched array
expressions:

* :class:`CompiledWorkload` — per-query statistics packed into padded
  ``(Q, P)`` arrays: each row holds the query's attributes sorted by
  ascending ``(selectivity, id)`` (the residual-scan order), their
  selectivities ``s_i``, value sizes ``a_i``, and a validity mask; per
  query the row count ``n``, ``log2(n)``, the table, the kind, and the
  precomputed sequential baseline ``f_j(0)``.
* :class:`VectorizedCostSource` — a drop-in
  :class:`~repro.cost.whatif.CostSource` whose one batch method,
  ``pair_costs``, evaluates ``f_j(0)``/``f_j(k)`` for many
  ``(query, index)`` pairs per call via cumulative-product qualifying
  fractions, per-prefix log terms, and position-list output terms — no
  per-row Python loops.  A single-pair ``query_cost`` call runs the
  same array code on a one-pair batch, so a query always prices
  identically whether reached via a batch or a scalar entry point.

**Equivalence contract.**  For every ``(query, index)`` pair the
vectorized cost matches the scalar :class:`CostModel` within ``1e-9``
relative tolerance (array reductions associate float additions
differently than the scalar accumulation loops; the formulas are
identical).  Maintenance and multi-index costs delegate to the scalar
model and are bit-identical.  See ``docs/COST_MODEL.md`` ("Compiled
kernel") for the array layouts and the tolerance argument.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from repro.cost.model import CostModel
from repro.indexes.index import Index
from repro.workload.query import Query, QueryKind
from repro.workload.schema import Schema

__all__ = [
    "CompiledWorkload",
    "KernelStatistics",
    "VectorizedCostSource",
]

_POSITION_LIST_ENTRY_BYTES = 4.0


@dataclass
class KernelStatistics:
    """Counters of compiled-kernel usage (telemetry-bridgeable).

    ``batch_calls``/``batch_pairs`` count ``pair_costs`` invocations
    and the ``(query, index)`` pairs they priced; ``scalar_calls``
    counts single-pair ``query_cost`` calls that fell through to the
    kernel one row at a time (ideally near zero once the facade routes
    everything through batches).
    """

    compiled_workloads: int = 0
    compiled_queries: int = 0
    compile_seconds: float = 0.0
    batch_calls: int = 0
    batch_pairs: int = 0
    scalar_calls: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average pairs priced per batch call (0 when unused)."""
        if not self.batch_calls:
            return 0.0
        return self.batch_pairs / self.batch_calls


@dataclass(frozen=True)
class CompiledWorkload:
    """Flat numpy packing of per-query schema statistics.

    All 2-D arrays are ``(query_count, padded_width)`` with one row per
    query; rows hold the query's attributes in residual-scan order
    (ascending ``(selectivity, id)``) and are padded to the widest
    query in the pack (``attribute_ids`` with ``-1``, ``selectivity``
    with ``1.0``, ``value_size`` with ``0.0``, ``valid`` with
    ``False``) so padded columns are arithmetic no-ops.
    """

    attribute_ids: np.ndarray
    """``(Q, P)`` int64 — global attribute ids, ``-1`` padding."""
    selectivity: np.ndarray
    """``(Q, P)`` float64 — ``s_i``, ``1.0`` padding."""
    value_size: np.ndarray
    """``(Q, P)`` float64 — ``a_i`` in bytes, ``0.0`` padding."""
    valid: np.ndarray
    """``(Q, P)`` bool — which entries are real attributes."""
    row_count: np.ndarray
    """``(Q,)`` float64 — table row count ``n`` per query."""
    log2_rows: np.ndarray
    """``(Q,)`` float64 — ``log2(n)`` (``1.0`` for ``n <= 1``)."""
    table_code: np.ndarray
    """``(Q,)`` int64 — dense per-source table identifier."""
    is_insert: np.ndarray
    """``(Q,)`` bool — INSERT queries (no index ever helps)."""
    sequential: np.ndarray
    """``(Q,)`` float64 — precomputed ``f_j(0)`` baselines."""

    @property
    def query_count(self) -> int:
        """Number of packed queries ``Q``."""
        return self.attribute_ids.shape[0]

    @property
    def padded_width(self) -> int:
        """Common padded attribute-list width ``P``."""
        return self.attribute_ids.shape[1]


def _residual_costs(
    row_count: np.ndarray,
    selectivity: np.ndarray,
    value_size: np.ndarray,
    mask: np.ndarray,
    qualifying_fraction: float | np.ndarray,
    weight: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized filtered sequential scan over masked attributes.

    Mirrors ``CostModel._residual_scan_cost``: scanning attribute ``p``
    reads ``a_p`` bytes per still-qualifying row and writes a 4-byte
    position-list entry per surviving row, so its contribution is
    ``n · f_before · (a_p + 4·s_p)`` with ``f_before`` the exclusive
    cumulative product of the preceding masked selectivities.  Callers
    looping over truncation lengths may pass the loop-invariant
    per-attribute ``weight`` (``a_p + 4·s_p``) precomputed.
    """
    effective = np.where(mask, selectivity, 1.0)
    cumulative = np.cumprod(effective, axis=1)
    before = np.empty_like(cumulative)
    before[:, 0] = 1.0
    before[:, 1:] = cumulative[:, :-1]
    if weight is None:
        weight = value_size + _POSITION_LIST_ENTRY_BYTES * selectivity
    contribution = np.where(mask, before * weight, 0.0)
    return row_count * qualifying_fraction * contribution.sum(axis=1)


class VectorizedCostSource:
    """Batch-capable cost source backed by compiled workload packs.

    Implements the :class:`~repro.cost.whatif.CostSource` protocol plus
    the one batch method the facade feature-detects, ``pair_costs``.
    Queries are compiled on first sight and their content is
    permanently bound to one pack row, so repeated pricing of the same
    query — batched or not, whole-workload or subset, the same object
    or a content-equal one — is deterministic down to the bit.

    Context-based multi-index costs delegate to the scalar
    :class:`~repro.cost.model.CostModel` (they are cheap, cached by the
    facade, and the greedy multi-index loop does not vectorize), keeping
    that path bit-identical to the scalar backend.  Write maintenance
    is not a kernel answer: the facade prices it from :attr:`schema`.
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._model = CostModel(schema)
        self._table_codes = {
            table.name: code
            for code, table in enumerate(schema.tables)
        }
        # Per-attribute-id statistic tables (index 0..max id) so prefix
        # tabulation gathers instead of calling schema methods.  Values
        # are the exact floats the scalar model uses: selectivity from
        # Attribute.selectivity, the log term via math.log2.
        size = max(schema.attribute_ids) + 1
        self._sel_by_id = np.ones(size, dtype=np.float64)
        self._size_log2d_by_id = np.zeros(size, dtype=np.float64)
        for attribute in schema.iter_attributes():
            self._sel_by_id[attribute.id] = attribute.selectivity
            self._size_log2d_by_id[attribute.id] = (
                attribute.value_size
                * math.log2(max(attribute.distinct_values, 2))
            )
        # Query content key -> (pack, row).  First registration wins so
        # every later evaluation reuses the exact same packed row.  Keyed
        # by content only, so the kernel keeps no query object alive.
        self._rows: dict[tuple, tuple[CompiledWorkload, int]] = {}
        self._order_cache: dict[frozenset, tuple[int, ...]] = {}
        self.statistics = KernelStatistics()
        # Guards pack compilation/registration; numpy evaluation itself
        # is pure and runs unlocked.
        self._lock = threading.Lock()

    @property
    def schema(self) -> Schema:
        """The schema this kernel compiles against."""
        return self._schema

    # ------------------------------------------------------------------
    # CostSource protocol (single pair)
    # ------------------------------------------------------------------

    def query_cost(self, query: Query, index: Index | None) -> float:
        """``f_j(k)`` (or ``f_j(0)``) for one pair, from the pack row."""
        self.statistics.scalar_calls += 1
        pack, row = self._placements((query,))[0]
        rows = np.array([row], dtype=np.intp)
        return float(self._pair_costs_on(pack, rows, [index])[0])

    def multi_index_cost(
        self, query: Query, indexes: Iterable[Index]
    ) -> float:
        """Appendix B(i) greedy multi-index cost (scalar delegate)."""
        return self._model.multi_index_cost(query, indexes)

    # ------------------------------------------------------------------
    # Batch entry point
    # ------------------------------------------------------------------

    def pair_costs(
        self, pairs: Sequence[tuple[Query, Index | None]]
    ) -> np.ndarray:
        """``f_j(k)`` for arbitrary ``(query, index)`` pairs at once.

        The whole-table entry point: a candidate×query cost table
        flattens into one pair list and prices in a single array sweep,
        instead of one (overhead-dominated) batch call per candidate
        column.  A ``None`` index prices the sequential baseline
        ``f_j(0)``.  :meth:`query_cost` runs the same arithmetic on a
        one-pair batch, so both entry points return bitwise-equal costs
        for the same pair.
        """
        pairs = tuple(pairs)
        self.statistics.batch_calls += 1
        self.statistics.batch_pairs += len(pairs)
        results = np.empty(len(pairs), dtype=np.float64)
        if not pairs:
            return results
        queries, indexes = zip(*pairs)
        placements = self._placements(queries)
        # Fast path: every query landed in the same pack (the common
        # whole-workload sweep) — no grouping pass needed.
        first_pack = placements[0][0]
        if all(placement[0] is first_pack for placement in placements):
            rows = np.fromiter(
                (placement[1] for placement in placements),
                dtype=np.intp,
                count=len(placements),
            )
            return self._pair_costs_on(first_pack, rows, indexes)
        groups: dict[
            int, tuple[CompiledWorkload, list[int], list[int], list]
        ]
        groups = {}
        for position, ((_, index), (pack, row)) in enumerate(
            zip(pairs, placements)
        ):
            entry = groups.get(id(pack))
            if entry is None:
                entry = (pack, [], [], [])
                groups[id(pack)] = entry
            entry[1].append(position)
            entry[2].append(row)
            entry[3].append(index)
        for pack, positions, rows, indexes in groups.values():
            costs = self._pair_costs_on(
                pack, np.asarray(rows, dtype=np.intp), indexes
            )
            results[np.asarray(positions, dtype=np.intp)] = costs
        return results

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _placements(
        self, queries: Sequence[Query]
    ) -> list[tuple[CompiledWorkload, int]]:
        """Pack rows for the queries, compiling unseen ones.

        Placements are read unlocked (they are written once under the
        lock and never mutated); only a batch with unseen queries takes
        the locked compile-or-register path.
        """
        rows_get = self._rows.get
        placements = [rows_get(query.cache_key) for query in queries]
        if None not in placements:
            return placements
        with self._lock:
            rows = self._rows
            fresh: dict[tuple, Query] = {}
            for query, placement in zip(queries, placements):
                if placement is None and query.cache_key not in rows:
                    fresh.setdefault(query.cache_key, query)
            if fresh:
                self._compile(list(fresh.values()))
            return [rows[query.cache_key] for query in queries]

    def _compile(self, queries: list[Query]) -> None:
        """Pack content-distinct queries into one new pack (locked)."""
        started = time.perf_counter()
        schema = self._schema
        count = len(queries)
        padded = max(len(query.attributes) for query in queries)
        attribute_ids = np.full((count, padded), -1, dtype=np.int64)
        selectivity = np.ones((count, padded), dtype=np.float64)
        value_size = np.zeros((count, padded), dtype=np.float64)
        valid = np.zeros((count, padded), dtype=bool)
        row_count = np.empty(count, dtype=np.float64)
        log2_rows = np.empty(count, dtype=np.float64)
        table_code = np.empty(count, dtype=np.int64)
        is_insert = np.zeros(count, dtype=bool)
        for position, query in enumerate(queries):
            ordered = self._ordered(query.attributes)
            width = len(ordered)
            attribute_ids[position, :width] = ordered
            selectivity[position, :width] = [
                schema.selectivity(attribute_id)
                for attribute_id in ordered
            ]
            value_size[position, :width] = [
                schema.value_size(attribute_id)
                for attribute_id in ordered
            ]
            valid[position, :width] = True
            rows = schema.table(query.table_name).row_count
            row_count[position] = float(rows)
            log2_rows[position] = math.log2(rows) if rows > 1 else 1.0
            table_code[position] = self._table_codes[query.table_name]
            is_insert[position] = query.kind is QueryKind.INSERT
        residual = _residual_costs(
            row_count, selectivity, value_size, valid, 1.0
        )
        sequential = np.where(
            is_insert, value_size.sum(axis=1), residual
        )
        pack = CompiledWorkload(
            attribute_ids=attribute_ids,
            selectivity=selectivity,
            value_size=value_size,
            valid=valid,
            row_count=row_count,
            log2_rows=log2_rows,
            table_code=table_code,
            is_insert=is_insert,
            sequential=sequential,
        )
        for position, query in enumerate(queries):
            self._rows[query.cache_key] = (pack, position)
        statistics = self.statistics
        statistics.compiled_workloads += 1
        statistics.compiled_queries += count
        statistics.compile_seconds += time.perf_counter() - started

    def _ordered(self, attributes: frozenset) -> tuple[int, ...]:
        """Residual-scan order: ascending ``(selectivity, id)``."""
        key = frozenset(attributes)
        ordered = self._order_cache.get(key)
        if ordered is None:
            schema = self._schema
            ordered = tuple(
                sorted(
                    key,
                    key=lambda attribute_id: (
                        schema.selectivity(attribute_id),
                        attribute_id,
                    ),
                )
            )
            self._order_cache[key] = ordered
        return ordered

    # ------------------------------------------------------------------
    # Batched f_j(k)
    # ------------------------------------------------------------------

    def _pair_costs_on(
        self, pack: CompiledWorkload, rows: np.ndarray, indexes: list
    ) -> np.ndarray:
        """``f_j(k)`` for pack rows paired with *per-row* indexes.

        The candidate axis is folded into the pair axis: distinct
        indexes are tabulated once (attributes padded to the widest
        candidate with a ``-2`` sentinel that matches no attribute, so
        short candidates simply stop participating early; ``None``
        entries get an all-sentinel row and keep their sequential
        baseline), then gathered per pair.  The truncation loop runs
        once over all pairs per prefix length: it evaluates every
        truncation ``L = 1..K`` of a pair's usable prefix, removing the
        ``L``-th index attribute from the residual-scan mask as it
        descends, and keeps the minimum.  Pairs where the index is
        inapplicable (other table, INSERT, or leading attribute absent)
        keep the sequential baseline — the same "a harmful index is
        simply not used" clamp as the scalar model.  A pair's arithmetic
        is element-wise and does not depend on the other pairs of its
        batch, so it prices bitwise identically alone or in any batch.
        """
        best = pack.sequential[rows].copy()
        # Distinct candidates by object identity (ids stay unique while
        # the pair tuple keeps every index alive): flat pair lists from
        # cost-table sweeps are runs of the same index object, so
        # run-length grouping touches Python once per run instead of
        # once per pair, and content-duplicate objects merely tabulate
        # twice with identical rows.
        distinct: dict[int, int] = {}
        distinct_indexes: list[Index | None] = []
        run_codes: list[int] = []
        run_lengths: list[int] = []
        for key, group in groupby(indexes, key=id):
            members = list(group)
            code = distinct.get(key)
            if code is None:
                code = len(distinct_indexes)
                distinct[key] = code
                distinct_indexes.append(members[0])
            run_codes.append(code)
            run_lengths.append(len(members))
        padded = max(
            (
                index.width
                for index in distinct_indexes
                if index is not None
            ),
            default=0,
        )
        if padded == 0:
            return best
        count = len(distinct_indexes)
        index_attrs = np.full((count, padded), -2, dtype=np.int64)
        index_table = np.full(count, -1, dtype=np.int64)
        table_codes = self._table_codes
        for code, index in enumerate(distinct_indexes):
            if index is None:
                continue
            index_attrs[code, : index.width] = index.attributes
            index_table[code] = table_codes.get(index.table_name, -1)
        # Prefix terms and qualifying fractions for every distinct
        # index at once: cumulative sum/product along the attribute
        # axis accumulate left-to-right, like the scalar model's loop.
        present = index_attrs >= 0
        clipped = np.where(present, index_attrs, 0)
        index_terms = np.cumsum(
            np.where(present, self._size_log2d_by_id[clipped], 0.0),
            axis=1,
        )
        index_fractions = np.cumprod(
            np.where(present, self._sel_by_id[clipped], 1.0), axis=1
        )
        pair_index = np.repeat(
            np.array(run_codes, dtype=np.intp),
            np.array(run_lengths, dtype=np.intp),
        )
        attrs = index_attrs[pair_index]
        attribute_ids = pack.attribute_ids[rows]
        applicable = (
            (pack.table_code[rows] == index_table[pair_index])
            & ~pack.is_insert[rows]
            & (attribute_ids == attrs[:, :1]).any(axis=1)
        )
        if not applicable.any():
            return best
        # Restrict every per-pair array to the applicable pairs, and
        # keep shrinking as prefixes stop matching: prefix usability is
        # monotone (logical_and.accumulate), so a pair that drops out
        # at one truncation length never participates again.  Per
        # surviving row the operations are element-wise identical to
        # the full-width loop, so results stay bitwise equal.
        positions = np.nonzero(applicable)[0]
        rows_live = rows[positions]
        attrs = attrs[positions]
        live_index = pair_index[positions]
        terms = index_terms[live_index]
        fractions = index_fractions[live_index]
        attribute_ids = attribute_ids[positions]
        member = (attribute_ids[:, None, :] == attrs[:, :, None]).any(
            axis=2
        )
        prefix_ok = np.logical_and.accumulate(member, axis=1)
        selectivity = pack.selectivity[rows_live]
        value_size = pack.value_size[rows_live]
        row_count = pack.row_count[rows_live]
        log2_rows = pack.log2_rows[rows_live]
        mask = pack.valid[rows_live]
        weight = value_size + _POSITION_LIST_ENTRY_BYTES * selectivity
        current = best[positions]
        for length in range(1, padded + 1):
            keep = prefix_ok[:, length - 1]
            if not keep.all():
                keep_positions = np.nonzero(keep)[0]
                if keep_positions.size == 0:
                    break
                best[positions] = current
                positions = positions[keep_positions]
                current = current[keep_positions]
                attrs = attrs[keep_positions]
                terms = terms[keep_positions]
                fractions = fractions[keep_positions]
                attribute_ids = attribute_ids[keep_positions]
                prefix_ok = prefix_ok[keep_positions]
                selectivity = selectivity[keep_positions]
                value_size = value_size[keep_positions]
                row_count = row_count[keep_positions]
                log2_rows = log2_rows[keep_positions]
                mask = mask[keep_positions]
                weight = weight[keep_positions]
            mask &= attribute_ids != attrs[:, length - 1][:, None]
            access = (
                log2_rows
                + terms[:, length - 1]
                + _POSITION_LIST_ENTRY_BYTES
                * row_count
                * fractions[:, length - 1]
            )
            residual = _residual_costs(
                row_count,
                selectivity,
                value_size,
                mask,
                fractions[:, length - 1],
                weight,
            )
            np.minimum(current, access + residual, out=current)
        best[positions] = current
        return best
