"""What-if optimizer facade with caching and call accounting.

What-if calls are "the major bottleneck for most index selection
approaches" (Section I); the paper's scalability argument rests on the
number of such calls (≈ ``2·Q·q̄`` for Algorithm 1 versus
``≈ Q·q̄·|I|/N`` for CoPhy, Section III-A).  This module provides:

* :class:`CostSource` — the protocol a cost backend implements: one
  required per-pair method and one optional batch method,
  ``pair_costs``.  Backends: :class:`AnalyticalCostSource` (Appendix B
  model), the compiled batch kernel in :mod:`repro.cost.kernel`, and
  the measured-execution source in :mod:`repro.engine.measured`.
* :class:`WhatIfOptimizer` — a caching facade that counts *backend* calls
  (cache hits are free, exactly like the caching the paper describes in
  Fig. 1's notes: "required what-if calls from previous steps can be
  cached").
* :class:`Applicability` — which queries each candidate applies to, and
  the path that prices a candidate pool's applicable pairs, in batches
  of at most :data:`PAIR_CHUNK`.
* :class:`WriteLoad` — a workload's write queries grouped by table, and
  the frequency-weighted maintenance an index imposes on them.

All selection algorithms in this repository obtain costs exclusively
through :class:`WhatIfOptimizer`, so call accounting is uniform.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from repro.indexes.configuration import IndexConfiguration
from repro.indexes.index import Index
from repro.workload.query import Query, Workload

__all__ = [
    "PAIR_CHUNK",
    "Applicability",
    "CostSource",
    "WriteLoad",
    "AnalyticalCostSource",
    "WhatIfOptimizer",
    "WhatIfStatistics",
]


class CostSource(Protocol):
    """Backend that prices a query under a single index (or none).

    Implementations must be deterministic: the facade caches results.
    Backends may additionally expose ``maintenance_cost(query, index)``
    for write queries; the facade treats a missing method as
    zero-maintenance (read-only backends).  Maintenance must be zero
    for a write on another table than the index's (:class:`WriteLoad`
    sums only the index's own table).
    """

    def query_cost(self, query: Query, index: Index | None) -> float:
        """``f_j(k)``, or ``f_j(0)`` when ``index`` is ``None``.

        Backends may additionally expose one batch method,
        ``pair_costs(pairs)``, returning ``query_cost`` of every
        ``(query, index_or_None)`` pair as one float array.  The facade
        feature-detects it and prices every cost column through it (the
        compiled kernel in :mod:`repro.cost.kernel` is the
        batch-capable backend); without it, the facade asks
        ``query_cost`` pair by pair.
        """
        ...  # pragma: no cover - protocol


class AnalyticalCostSource:
    """Cost source backed by the Appendix B analytic model."""

    def __init__(self, cost_model) -> None:
        self._cost_model = cost_model

    def query_cost(self, query: Query, index: Index | None) -> float:
        if index is None:
            return self._cost_model.sequential_cost(query)
        return self._cost_model.index_cost(query, index)

    def maintenance_cost(self, query: Query, index: Index) -> float:
        """Per-execution index maintenance of a write query."""
        return self._cost_model.maintenance_cost(query, index)

    def multi_index_cost(
        self, query: Query, indexes: tuple[Index, ...]
    ) -> float:
        """Context-based multi-index evaluation (Remark 2)."""
        return self._cost_model.multi_index_cost(query, indexes)


@dataclass
class WhatIfStatistics:
    """Counters of what-if optimizer usage."""

    calls: int = 0
    cache_hits: int = 0
    evictions: int = 0
    """Cost-cache entries dropped by the optional LRU bound (0 on an
    unbounded facade)."""

    @property
    def total_requests(self) -> int:
        """Backend calls plus cache hits."""
        return self.calls + self.cache_hits

    @property
    def hit_rate(self) -> float:
        """Share of requests served from the cache (0 when unused)."""
        total = self.total_requests
        return self.cache_hits / total if total else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.calls = 0
        self.cache_hits = 0
        self.evictions = 0

    def copy(self) -> WhatIfStatistics:
        """Point-in-time copy (the live object mutates in place)."""
        return WhatIfStatistics(
            calls=self.calls,
            cache_hits=self.cache_hits,
            evictions=self.evictions,
        )

    def since(self, earlier: WhatIfStatistics) -> WhatIfStatistics:
        """Counter deltas accumulated after ``earlier`` was captured."""
        return WhatIfStatistics(
            calls=self.calls - earlier.calls,
            cache_hits=self.cache_hits - earlier.cache_hits,
            evictions=self.evictions - earlier.evictions,
        )


def _encode_index_key(tail):
    """Index part of a cache key → JSON-safe nested lists.

    ``None`` (sequential baseline) passes through; attribute tuples and
    tuples of attribute tuples (multi-index entries) become lists.
    """
    if tail is None:
        return None
    return [
        list(element) if isinstance(element, tuple) else element
        for element in tail
    ]


def _decode_index_key(tail):
    """Inverse of :func:`_encode_index_key` (lists back to tuples)."""
    if tail is None:
        return None
    return tuple(
        tuple(int(inner) for inner in element)
        if isinstance(element, list)
        else int(element)
        for element in tail
    )


class WhatIfOptimizer:
    """Caching what-if optimizer.

    Parameters
    ----------
    cost_source:
        The backend that actually prices ``(query, index)`` pairs.
    max_entries:
        Optional LRU capacity of the cost cache.  ``None`` (default)
        keeps the cache unbounded — a plain dict with zero hot-path
        overhead.  With a bound, a resident daemon serving millions of
        distinct queries holds at most ``max_entries`` cost entries:
        hits refresh recency, inserts past capacity evict the least
        recently used entry and count it in ``statistics.evictions``
        (the ``whatif.evictions`` gauge).  The maintenance cache stays
        unbounded — it only holds write-query × index entries, which
        are few and statistics-derived.
    """

    def __init__(
        self,
        cost_source: CostSource,
        *,
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}"
            )
        self._source = cost_source
        self._max_entries = max_entries
        # Cache keys are content-based — (query.cache_key, identity of
        # the index) — not query-id-based: costs do not depend on
        # frequencies or ids, so one facade can serve many workloads
        # (drift epochs, compressed variants) without collisions and
        # with full cache reuse.  Indexes are identified by their
        # attribute tuple alone (global attribute ids are owned by
        # exactly one table, so the tuple implies the table), which
        # hashes at C speed in the per-pair hot loops.  The bounded
        # variant is an OrderedDict so recency moves are O(1).
        self._cache: dict[tuple, float] = (
            OrderedDict() if max_entries is not None else {}
        )
        self._maintenance_cache: dict[tuple, float] = {}
        self._statistics = WhatIfStatistics()
        # Guards cache/statistics mutation so the facade can be shared
        # by concurrent requests (the service's worker threads).
        self._lock = threading.Lock()

    @property
    def max_entries(self) -> int | None:
        """The configured LRU bound (``None`` = unbounded)."""
        return self._max_entries

    def _admit(self, key: tuple, cost: float) -> float:
        """Insert-or-keep one cost entry; evicts LRU past capacity.

        Caller holds the lock.  Mirrors ``setdefault`` (the first
        stored value wins); on a bounded cache the insert may push the
        least recently used entry out, counted as an eviction.
        """
        stored = self._cache.setdefault(key, cost)
        if self._max_entries is not None:
            while len(self._cache) > self._max_entries:
                self._cache.popitem(last=False)  # type: ignore[call-arg]
                self._statistics.evictions += 1
        return stored

    def _touch(self, key: tuple) -> None:
        """Refresh one key's recency (caller holds the lock; bounded
        caches only — a no-op costs a branch the unbounded hot path
        never takes because call sites gate on ``_max_entries``)."""
        self._cache.move_to_end(key)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def statistics(self) -> WhatIfStatistics:
        """Call counters (mutated in place as the optimizer is used)."""
        return self._statistics

    @property
    def calls(self) -> int:
        """Number of backend (non-cached) what-if calls so far."""
        return self._statistics.calls

    @property
    def supports_batch(self) -> bool:
        """Whether the backend can price whole cost columns per call.

        True when the source exposes ``pair_costs`` (the compiled
        kernel, or a resilient wrapper around it).  Callers use this to
        decide whether pre-warming whole columns is cheap; the batch
        methods below work either way (they fall back to per-pair
        lookups on scalar backends).
        """
        return getattr(self._source, "pair_costs", None) is not None

    def reset_statistics(self) -> None:
        """Zero the call counters (the cache itself is kept)."""
        with self._lock:
            self._statistics.reset()

    def clear_cache(
        self, queries: Iterable[Query] | None = None
    ) -> int:
        """Drop cached costs; global by default, scoped when given queries.

        Without arguments (the single-tenant path), all cached costs are
        dropped *and* the counters are zeroed, atomically.  Counters and
        cache must move together there: a cleared cache with surviving
        ``cache_hits`` would report an inflated ``hit_rate`` for the
        rest of the run (hits that can no longer be explained by any
        cached entry).  Callers that want counters across epochs should
        capture ``statistics.copy()`` before clearing.

        With ``queries``, only entries belonging to those queries (by
        content key — cost, maintenance, and multi-index entries alike)
        are dropped and the counters are left untouched: a multi-tenant
        facade shared across workload registrations must be able to
        invalidate one workload's entries on update without wiping the
        statistics — or the cached answers — of unrelated concurrent
        requests.  The counters then describe facade *usage*, not cache
        *contents*; scoped invalidation may retire entries whose past
        hits remain counted.

        Returns the number of cache entries removed.
        """
        if queries is None:
            with self._lock:
                removed = len(self._cache) + len(self._maintenance_cache)
                self._cache.clear()
                self._maintenance_cache.clear()
                self._statistics.reset()
            return removed
        scope = {query.cache_key for query in queries}
        if not scope:
            return 0
        with self._lock:
            # All cache keys lead with the query content key, so one
            # membership filter covers cost, maintenance, and
            # multi-index entries uniformly.
            before = len(self._cache) + len(self._maintenance_cache)
            survivors = {
                key: value
                for key, value in self._cache.items()
                if key[0] not in scope
            }
            # Rebuilding must preserve the bounded variant's container
            # (and its recency order, which the comprehension keeps).
            self._cache = (
                OrderedDict(survivors)
                if self._max_entries is not None
                else survivors
            )
            self._maintenance_cache = {
                key: value
                for key, value in self._maintenance_cache.items()
                if key[0] not in scope
            }
            return before - (
                len(self._cache) + len(self._maintenance_cache)
            )

    def export_cache(self, queries: Iterable[Query]) -> dict:
        """JSON-safe snapshot of the cache entries owned by ``queries``.

        Entries are keyed by the *position* of the owning query within
        ``queries`` (not by its content key, which contains frozensets
        and enums), plus the index part of the cache key encoded as
        nested lists: ``None`` for the sequential baseline, a flat
        attribute list for single-index costs, a list of attribute
        lists for multi-index (Remark 2) entries.  Rows are sorted so
        identical cache state serializes to identical bytes.
        Counters are *not* exported — they describe facade usage in
        this process, not cache contents.
        """
        positions: dict[tuple, int] = {}
        for position, query in enumerate(queries):
            positions.setdefault(query.cache_key, position)

        def rows(cache: dict[tuple, float]) -> list:
            selected = []
            for (content_key, tail), value in cache.items():
                position = positions.get(content_key)
                if position is None:
                    continue
                selected.append(
                    [position, _encode_index_key(tail), float(value)]
                )
            selected.sort(
                key=lambda row: (row[0], repr(row[1]))
            )
            return selected

        with self._lock:
            return {
                "cost": rows(self._cache),
                "maintenance": rows(self._maintenance_cache),
            }

    def import_cache(
        self, queries: Sequence[Query], entries: dict
    ) -> int:
        """Reinstall entries captured by :meth:`export_cache`.

        ``queries`` must be the same sequence (same order) the export
        was scoped to.  Existing entries win over imported ones
        (``setdefault``), counters are untouched, and malformed rows
        are skipped rather than raised — imports come from snapshots,
        which are allowed to be wrong but never fatal.  Returns the
        number of entries installed.
        """
        queries = tuple(queries)
        installed = 0

        def load(cache: dict[tuple, float], rows) -> int:
            count = 0
            for row in rows:
                try:
                    position, tail, value = row
                    position = int(position)
                    if not 0 <= position < len(queries):
                        continue
                    query = queries[position]
                    key = (query.cache_key, _decode_index_key(tail))
                    cost = float(value)
                except (IndexError, TypeError, ValueError):
                    continue
                if key not in cache:
                    cache[key] = cost
                    count += 1
            return count

        with self._lock:
            installed += load(self._cache, entries.get("cost", ()))
            installed += load(
                self._maintenance_cache, entries.get("maintenance", ())
            )
            if self._max_entries is not None:
                while len(self._cache) > self._max_entries:
                    self._cache.popitem(last=False)  # type: ignore[call-arg]
                    self._statistics.evictions += 1
        return installed

    # ------------------------------------------------------------------
    # Cost queries
    # ------------------------------------------------------------------

    def sequential_cost(self, query: Query) -> float:
        """``f_j(0)``: query cost without any index."""
        return self._lookup(query, None)

    def index_cost(self, query: Query, index: Index) -> float:
        """``f_j(k)``: query cost with exactly one index.

        Inapplicable indexes price at the sequential cost; the facade
        short-circuits that case without a backend call, mirroring the
        paper's observation that only queries an index *could* affect
        need evaluation.
        """
        if not index.is_applicable_to(query):
            return self.sequential_cost(query)
        return self._lookup(query, index)

    def sequential_costs(self, queries: Sequence[Query]) -> np.ndarray:
        """``f_j(0)`` for a whole column of queries: one
        :meth:`pair_costs` call over ``(query, None)`` pairs."""
        return self.pair_costs([(query, None) for query in queries])

    def pair_costs(
        self, pairs: Sequence[tuple[Query, Index | None]]
    ) -> np.ndarray:
        """Cost of arbitrary ``(query, index_or_None)`` pairs at once.

        The facade's one batch lookup: :meth:`Applicability.price`
        flattens many candidate columns into bounded pair lists so a
        pair-capable backend prices thousands of columns per sweep, and
        :meth:`sequential_costs` and Extend's move pricing send their
        columns through it too.  Pairs are passed through as given —
        callers are expected to pre-filter inapplicable pairs the way
        :meth:`index_cost` would (pair them with ``None`` instead).
        One backend call prices every uncached distinct pair; accounting
        matches the per-pair path exactly (first uncached occurrence of
        a content key counts as a call, duplicates and cached entries as
        cache hits), and so does the per-pair fallback on backends
        without ``pair_costs``.
        """
        pairs = tuple(pairs)
        backend_pairs = getattr(self._source, "pair_costs", None)
        if backend_pairs is None:
            return np.array(
                [self._lookup(query, index) for query, index in pairs],
                dtype=np.float64,
            )
        keys = [
            (query.cache_key, None if index is None else index.attributes)
            for query, index in pairs
        ]
        with self._lock:
            cold = not self._cache
            if not cold:
                cache_get = self._cache.get
                results: list[float | None] = [
                    cache_get(key) for key in keys
                ]
                miss_count = results.count(None)
                self._statistics.cache_hits += len(pairs) - miss_count
                cold = miss_count == len(pairs)
                if self._max_entries is not None and not cold:
                    touch = self._cache.move_to_end  # type: ignore[attr-defined]
                    for key, value in zip(keys, results):
                        if value is not None:
                            touch(key)
        if cold:
            # Every key misses (a cold cache, or a batch of pairs never
            # priced — the whole-table sweep case), so skip the
            # cached-value scans entirely.
            results = [None] * len(pairs)
            miss_count = len(pairs)
        if miss_count:
            # Content-dedup the misses: one backend evaluation per
            # distinct key, cache hits for the duplicates — the same
            # totals the per-pair path would count.
            missing: dict[tuple, tuple[Query, Index | None]] = {}
            if cold:
                for key, pair in zip(keys, pairs):
                    if key not in missing:
                        missing[key] = pair
            else:
                for position, value in enumerate(results):
                    if value is None:
                        key = keys[position]
                        if key not in missing:
                            missing[key] = pairs[position]
            costs = backend_pairs(tuple(missing.values())).tolist()
            with self._lock:
                if self._max_entries is None:
                    cache_setdefault = self._cache.setdefault
                    costmap = {
                        key: cache_setdefault(key, cost)
                        for key, cost in zip(missing, costs)
                    }
                else:
                    admit = self._admit
                    costmap = {
                        key: admit(key, cost)
                        for key, cost in zip(missing, costs)
                    }
                statistics = self._statistics
                statistics.calls += len(missing)
                statistics.cache_hits += miss_count - len(missing)
            if cold:
                costmap_get = costmap.__getitem__
                results = [costmap_get(key) for key in keys]
            else:
                for position, value in enumerate(results):
                    if value is None:
                        results[position] = costmap[keys[position]]
        return np.array(results, dtype=np.float64)

    def maintenance_cost(self, query: Query, index: Index) -> float:
        """Per-execution maintenance of ``index`` for a write query.

        Zero for SELECTs and for backends without a maintenance model.
        Maintenance is derived from statistics, not from the what-if
        optimizer, so it is cached but never counted as a backend call.
        """
        if query.is_select:
            return 0.0
        key = (query.cache_key, index.attributes)
        with self._lock:
            cached = self._maintenance_cache.get(key)
        if cached is not None:
            return cached
        backend = getattr(self._source, "maintenance_cost", None)
        cost = 0.0 if backend is None else backend(query, index)
        with self._lock:
            return self._maintenance_cache.setdefault(key, cost)

    def configuration_cost(
        self, query: Query, configuration: IndexConfiguration | Iterable[Index]
    ) -> float:
        """``f_j(I*)`` in the one-index-per-query setting (Example 1 (i)).

        Write queries additionally pay maintenance for *every* selected
        index they touch — the additive penalty that makes over-indexing
        a real trade-off.
        """
        indexes = tuple(configuration)
        return self._query_cost(
            query,
            [index for index in indexes if index.is_applicable_to(query)],
            indexes,
        )

    def workload_cost(
        self,
        workload: Workload,
        configuration: IndexConfiguration | Iterable[Index],
    ) -> float:
        """``F(I*) = Σ_j b_j · f_j(I*)`` (Eq. 1).

        Equal, bit for bit and call for call, to summing
        :meth:`configuration_cost` over the workload, but each query
        looks up only the indexes whose leading attribute it contains
        (attribute ids are owned by one table), in configuration order.
        """
        indexes = tuple(configuration)
        by_leading: dict[int, list[tuple[int, Index]]] = {}
        for entry in enumerate(indexes):
            by_leading.setdefault(entry[1].leading_attribute, []).append(entry)

        def applicable(query: Query) -> list[Index]:
            found = [
                entry
                for attribute_id in query.attributes
                for entry in by_leading.get(attribute_id, ())
            ]
            found.sort()  # orders are unique: Index is never compared
            return [index for _, index in found]

        return sum(
            query.frequency
            * self._query_cost(query, applicable(query), indexes)
            for query in workload
        )

    def _query_cost(
        self, query: Query, applicable: list[Index], indexes: Sequence[Index]
    ) -> float:
        """``f_j(I*)`` from the ``applicable`` subset of ``indexes``;
        a write query pays maintenance for all of ``indexes``."""
        best = self.sequential_cost(query)
        for index in applicable:
            best = min(best, self._lookup(query, index))
        if not query.is_select:
            best += sum(
                self.maintenance_cost(query, index) for index in indexes
            )
        return best

    def multi_configuration_cost(
        self, query: Query, configuration: IndexConfiguration | Iterable[Index]
    ) -> float:
        """``f_j(I*)`` when multiple indexes may serve one query.

        The context-based evaluation of Remark 2 / Appendix B(i) steps
        1–4: position lists of several indexes are intersected.  Only
        available with backends exposing ``multi_index_cost`` (the
        analytic model); cached per (query, applicable-index-set).
        Write queries pay the same additive maintenance as in
        :meth:`configuration_cost`.
        """
        backend = getattr(self._source, "multi_index_cost", None)
        if backend is None:
            return self.configuration_cost(query, configuration)
        applicable = tuple(
            sorted(
                (
                    index
                    for index in configuration
                    if index.table_name == query.table_name
                ),
                key=lambda index: (index.table_name, index.attributes),
            )
        )
        key = (
            query.cache_key,
            tuple(index.attributes for index in applicable),
        )
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._statistics.cache_hits += 1
                if self._max_entries is not None:
                    self._touch(key)
        if cached is None:
            cached = backend(query, applicable)
            with self._lock:
                self._statistics.calls += 1
                cached = self._admit(key, cached)
        cost = cached
        if not query.is_select:
            cost += sum(
                self.maintenance_cost(query, index)
                for index in configuration
            )
        return cost

    def multi_workload_cost(
        self,
        workload: Workload,
        configuration: IndexConfiguration | Iterable[Index],
    ) -> float:
        """``F(I*)`` under multi-index-per-query semantics."""
        indexes = tuple(configuration)
        return sum(
            query.frequency
            * self.multi_configuration_cost(query, indexes)
            for query in workload
        )

    def cost_table(
        self, workload: Workload, candidates: Iterable[Index]
    ) -> dict[tuple[int, Index | None], float]:
        """Pre-compute ``f_j(k)`` for every query × applicable candidate.

        This is what two-step approaches (CoPhy, H4, H5) must do before
        their selection phase — the call count it triggers is the
        ``≈ Q·q̄·|I|/N`` term of Section III-A.  Returns a mapping from
        ``(query_id, index_or_None)`` to cost, including the sequential
        baseline per query.
        """
        queries = tuple(workload)
        if not self.supports_batch:
            # The per-pair reference path of scalar backends.
            candidate_list = tuple(candidates)
            table: dict[tuple[int, Index | None], float] = {}
            for query in queries:
                table[(query.query_id, None)] = self.sequential_cost(query)
                for index in candidate_list:
                    if index.is_applicable_to(query):
                        table[(query.query_id, index)] = self._lookup(
                            query, index
                        )
            return table
        table = {
            (query.query_id, None): cost
            for query, cost in zip(
                queries, self.sequential_costs(queries).tolist()
            )
        }
        for index, positions, costs in Applicability(queries).price(
            self, candidates
        ):
            for position, cost in zip(positions.tolist(), costs.tolist()):
                table[(queries[position].query_id, index)] = cost
        return table

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _lookup(self, query: Query, index: Index | None) -> float:
        key = (
            query.cache_key,
            None if index is None else index.attributes,
        )
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._statistics.cache_hits += 1
                if self._max_entries is not None:
                    self._touch(key)
                return cached
        # The backend call runs unlocked (it may be an expensive what-if
        # round trip); a racing worker that also misses counts as a call
        # too — both did hit the backend — and the first stored value
        # wins (backends are deterministic, so they agree anyway).
        cost = self._source.query_cost(query, index)
        with self._lock:
            self._statistics.calls += 1
            return self._admit(key, cost)


PAIR_CHUNK = 16_384
"""Pairs per ``pair_costs`` batch when :class:`Applicability` prices a
candidate pool.  Large enough that per-batch overhead vanishes (a
paper-scale Fig. 2 swap pool is ≈ 745 k pairs, ≈ 46 batches), small
enough that one batch's pairs, keys and costs stay a few MB: pricing
that pool as one batch peaked near 1 GB."""

_NO_POSITIONS = np.empty(0, dtype=np.intp)


class Applicability:
    """Which queries each index applies to, and pricing of those pairs.

    Maps every attribute id to the ascending positions of the queries
    that contain it.  Attribute ids are owned by exactly one table, so
    the queries under an index's leading attribute are precisely those
    :meth:`Index.is_applicable_to` accepts — found without scanning
    every query for every candidate.
    """

    def __init__(self, queries: Sequence[Query]) -> None:
        self.queries = tuple(queries)
        by_attribute: dict[int, list[int]] = {}
        for position, query in enumerate(self.queries):
            for attribute_id in query.attributes:
                by_attribute.setdefault(attribute_id, []).append(position)
        self.by_attribute: dict[int, np.ndarray] = {
            attribute_id: np.array(positions, dtype=np.intp)
            for attribute_id, positions in by_attribute.items()
        }

    def positions(self, index: Index) -> np.ndarray:
        """Ascending positions of the queries ``index`` applies to."""
        return self.by_attribute.get(index.leading_attribute, _NO_POSITIONS)

    def price(
        self, optimizer: WhatIfOptimizer, indexes: Iterable[Index]
    ) -> Iterator[tuple[Index, np.ndarray, np.ndarray]]:
        """``(index, positions, costs)`` per index, in order, where
        ``costs[i]`` is ``f_j(k)`` of the query at ``positions[i]``.

        The applicable pairs, candidate-major, go through
        ``optimizer.pair_costs`` in batches of at most
        :data:`PAIR_CHUNK`, each priced only once the consumer reaches
        it (no list of all pairs is built).  Accounting equals per-pair
        :meth:`WhatIfOptimizer.index_cost` calls in the same order.
        """
        indexes = tuple(indexes)
        columns = [self.positions(index) for index in indexes]
        queries = self.queries
        pairs = (
            (queries[position], index)
            for index, column in zip(indexes, columns)
            for position in column.tolist()
        )
        costs = np.empty(0)  # priced, not yet handed out
        for index, column in zip(indexes, columns):
            while len(costs) < len(column):
                chunk = list(itertools.islice(pairs, PAIR_CHUNK))
                costs = np.concatenate((costs, optimizer.pair_costs(chunk)))
            yield index, column, costs[: len(column)]
            costs = costs[len(column):]


class WriteLoad:
    """A workload's write queries, grouped by table in query order.

    An index is maintained only by writes to its own table (the
    maintenance of a write on another table is exactly ``0.0``), so the
    load an index imposes is a sum over that table's writes alone.
    """

    def __init__(self, queries: Sequence[Query]) -> None:
        self.queries = tuple(
            query for query in queries if not query.is_select
        )
        by_table: dict[str, list[Query]] = {}
        for query in self.queries:
            by_table.setdefault(query.table_name, []).append(query)
        self._by_table = {
            table_name: tuple(writes)
            for table_name, writes in by_table.items()
        }

    def __bool__(self) -> bool:
        return bool(self.queries)

    def on(self, table_name: str) -> tuple[Query, ...]:
        """The writes to ``table_name``, in query order."""
        return self._by_table.get(table_name, ())

    def load(self, optimizer: WhatIfOptimizer, index: Index) -> float:
        """``Σ b_q · m_q(index)`` over the writes to ``index``'s table,
        summed in query order."""
        return sum(
            (
                query.frequency * optimizer.maintenance_cost(query, index)
                for query in self.on(index.table_name)
            ),
            0.0,
        )
