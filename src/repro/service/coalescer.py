"""Cross-request pricing coalescer: micro-batching + pair dedup.

The vectorized kernel makes *single-request* pricing fast, but a
service absorbing heavy concurrent traffic has a different bottleneck:
N in-flight ``recommend`` requests issue N independent backend
dispatches that re-price identical ``(query, index)`` pairs.  CoPhy's
observation — what-if-call economy is *the* scalability lever for
index advisors — applies across requests exactly as it does within
one.  This module is the inference-server answer (dynamic batching +
prefix-cache sharing) applied to the cost kernel:

* Concurrent callers enqueue their pair-pricing work into a shared
  window instead of dispatching immediately.
* Work items are **content-addressed** — keyed by
  ``(Query.cache_key, index attribute tuple)`` — so a pair wanted by
  five racing requests is priced once and fanned out to every waiter.
* A **leader** caller drains the window after ``window_s`` (or
  immediately when the service is otherwise idle, or early when the
  ``max_pairs`` cap fills) and dispatches one *fused*
  ``pair_costs`` batch.
* Followers block on the shared items; results (or the batch's
  error — faults propagate per-waiter) complete every request with
  values **bit-identical** to the uncoalesced path.  The kernel
  contract makes this sound: ``query_cost`` / ``query_costs`` /
  ``pair_costs`` are documented bitwise-equal for the same pair, so
  routing column lookups through the fused pair path changes nothing
  but the dispatch shape.

The coalescer slots *between* the caching
:class:`~repro.cost.whatif.WhatIfOptimizer` facade and the
:class:`~repro.resilience.ResilientCostSource` below it.  That
placement is load-bearing twice over: the facade releases its lock
around backend calls (so concurrent cache misses actually meet in the
window — the resilient layer, which serializes its whole state
machine, would never show the coalescer two callers at once), and the
facade's call/hit accounting stays *above* the coalescer, so
per-request :class:`~repro.cost.whatif.WhatIfStatistics` deltas are
unchanged by coalescing.

Deadlines: a waiter whose request deadline already expired does not
sit out the window — it detaches, dispatching its own still-pending
items immediately (the shared in-flight batch is never cancelled, and
the detached dispatch still resolves the shared items for everyone
else).  The per-request deadline reaches the coalescer through a
thread-local set by :func:`waiter_deadline` around the request's
selection run.

There is no scheduler thread: scheduling is cooperative
(leader/follower), so an idle service pays nothing and shutdown has
nothing to join.  Window pacing uses real time — like the service
watchdog and snapshot threads, a manual test clock cannot wake a
condition variable.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.indexes.index import Index
from repro.resilience.deadline import Deadline
from repro.workload.query import Query

__all__ = [
    "CoalescerStatistics",
    "PricingCoalescer",
    "current_waiter_deadline",
    "waiter_deadline",
]

_DEFAULT_WINDOW_S = 0.002
_DEFAULT_MAX_PAIRS = 32768
# Followers re-check their items on this cadence even without a
# notification; purely a liveness backstop (results arrive via
# notify_all long before it fires).
_FOLLOWER_POLL_S = 0.05


_WAITER_STATE = threading.local()


@contextmanager
def waiter_deadline(deadline: Deadline | None):
    """Expose a request's deadline to coalescers on this thread.

    The service wraps each request's selection run in this context so
    every pricing call the run makes can consult the request deadline.
    """
    previous = getattr(_WAITER_STATE, "deadline", None)
    _WAITER_STATE.deadline = deadline
    try:
        yield
    finally:
        _WAITER_STATE.deadline = previous


def current_waiter_deadline() -> Deadline | None:
    """The deadline of the request running on this thread, if any."""
    return getattr(_WAITER_STATE, "deadline", None)


@dataclass
class CoalescerStatistics:
    """Lifetime counters of one coalescer (the ``coalescer.*`` gauges)."""

    callers: int = 0
    enqueued_pairs: int = 0
    deduped_pairs: int = 0
    batches: int = 0
    dispatched_pairs: int = 0
    max_batch_pairs: int = 0
    peak_window_pairs: int = 0
    idle_fast_paths: int = 0
    window_waits: int = 0
    cap_closes: int = 0
    deadline_detaches: int = 0
    waiter_wait_seconds_total: float = 0.0

    @property
    def dedup_rate(self) -> float:
        """Share of requested pairs served by someone else's work item.

        ``deduped / (deduped + enqueued)`` — 0 on an idle or
        single-tenant service, climbing exactly when concurrent
        requests overlap in content.
        """
        total = self.enqueued_pairs + self.deduped_pairs
        return self.deduped_pairs / total if total else 0.0

    @property
    def mean_batch_pairs(self) -> float:
        """Average fused dispatch size (0 before the first dispatch)."""
        return (
            self.dispatched_pairs / self.batches if self.batches else 0.0
        )

    def copy(self) -> CoalescerStatistics:
        """Point-in-time copy (the live object mutates in place)."""
        return CoalescerStatistics(**vars(self))

    def publish(self, registry, prefix: str = "coalescer") -> None:
        """Bridge the counters into a telemetry
        :class:`~repro.telemetry.metrics.MetricsRegistry` as gauges."""
        registry.gauge(f"{prefix}.callers").set(self.callers)
        registry.gauge(f"{prefix}.enqueued_pairs").set(
            self.enqueued_pairs
        )
        registry.gauge(f"{prefix}.deduped_pairs").set(
            self.deduped_pairs
        )
        registry.gauge(f"{prefix}.dedup_rate").set(self.dedup_rate)
        registry.gauge(f"{prefix}.batches").set(self.batches)
        registry.gauge(f"{prefix}.dispatched_pairs").set(
            self.dispatched_pairs
        )
        registry.gauge(f"{prefix}.mean_batch_pairs").set(
            self.mean_batch_pairs
        )
        registry.gauge(f"{prefix}.max_batch_pairs").set(
            self.max_batch_pairs
        )
        registry.gauge(f"{prefix}.peak_window_pairs").set(
            self.peak_window_pairs
        )
        registry.gauge(f"{prefix}.idle_fast_paths").set(
            self.idle_fast_paths
        )
        registry.gauge(f"{prefix}.window_waits").set(self.window_waits)
        registry.gauge(f"{prefix}.cap_closes").set(self.cap_closes)
        registry.gauge(f"{prefix}.deadline_detaches").set(
            self.deadline_detaches
        )
        registry.gauge(f"{prefix}.waiter_wait_seconds_total").set(
            self.waiter_wait_seconds_total
        )


class _WorkItem:
    """One content-addressed pair awaiting a price.

    Created by the first caller that wants the pair, shared by
    everyone who wants it after; resolved exactly once with either a
    value or the error of the batch that carried it.
    """

    __slots__ = ("key", "pair", "value", "error", "done")

    def __init__(
        self, key: tuple, pair: tuple[Query, Index | None]
    ) -> None:
        self.key = key
        self.pair = pair
        self.value: float | None = None
        self.error: BaseException | None = None
        self.done = False


class PricingCoalescer:
    """Micro-batching, content-deduplicating wrapper of a cost source.

    Parameters
    ----------
    source:
        The wrapped backend — in the service, the per-kernel
        :class:`~repro.resilience.ResilientCostSource`.  It must
        expose ``pair_costs`` (the fused dispatch entry point); the
        service simply skips coalescing for kernels without it.
    window_s:
        Micro-batch window: how long the first enqueued pair may wait
        for company before the leader dispatches.  The window is
        skipped entirely when no other caller is active (the idle
        fast path) and closed early by ``max_pairs`` or an expired
        waiter deadline.
    max_pairs:
        Fused-batch cap: the window closes as soon as this many pairs
        are pending, bounding both dispatch latency and batch memory.
    deadline_provider:
        Callable returning the current caller's
        :class:`~repro.resilience.Deadline` (or ``None``); defaults to
        the thread-local set by :func:`waiter_deadline`.

    The wrapped source's optional capabilities are mirrored exactly —
    a method the source does not advertise is ``None`` on the
    coalescer too — so the facade's feature detection (and therefore
    its accounting and batching decisions) cannot tell the coalescer
    from the bare source.
    """

    # Mirrored verbatim (never coalesced): scalar lookups are
    # latency-sensitive singletons, maintenance is statistics-derived
    # and effectively free, multi-index contexts are analytic-only.
    _PASSTHROUGH_METHODS = (
        "query_cost",
        "maintenance_cost",
        "maintenance_costs",
        "multi_index_cost",
    )
    # Re-routed through the fused pair path when the source advertises
    # them (bit-identical per the kernel contract).
    _COLUMN_METHODS = ("query_costs", "sequential_costs")

    def __init__(
        self,
        source,
        *,
        window_s: float = _DEFAULT_WINDOW_S,
        max_pairs: int = _DEFAULT_MAX_PAIRS,
        deadline_provider: Callable[[], Deadline | None] | None = None,
    ) -> None:
        if getattr(source, "pair_costs", None) is None:
            raise TypeError(
                "PricingCoalescer requires a source with pair_costs; "
                f"{type(source).__name__} does not advertise it"
            )
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if max_pairs < 1:
            raise ValueError(f"max_pairs must be >= 1, got {max_pairs}")
        self._source = source
        self._window_s = window_s
        self._max_pairs = max_pairs
        self._deadline_provider = (
            deadline_provider
            if deadline_provider is not None
            else current_waiter_deadline
        )
        self._cond = threading.Condition()
        self._pending: dict[tuple, _WorkItem] = {}
        self._inflight: dict[tuple, _WorkItem] = {}
        self._leader_active = False
        self._window_opened_at: float | None = None
        self._active_callers = 0
        self._statistics = CoalescerStatistics()
        for name in self._PASSTHROUGH_METHODS:
            if getattr(source, name, None) is None:
                setattr(self, name, None)
        for name in self._COLUMN_METHODS:
            if getattr(source, name, None) is None:
                setattr(self, name, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def statistics(self) -> CoalescerStatistics:
        """Live counters (mutated in place as the coalescer is used)."""
        return self._statistics

    @property
    def source(self):
        """The wrapped backend (exposed for accounting)."""
        return self._source

    @property
    def window_s(self) -> float:
        """The configured micro-batch window in seconds."""
        return self._window_s

    @property
    def max_pairs(self) -> int:
        """The configured fused-batch pair cap."""
        return self._max_pairs

    def pending_pairs(self) -> int:
        """Pairs currently waiting in the window (for tests/health)."""
        with self._cond:
            return len(self._pending)

    # ------------------------------------------------------------------
    # Pass-through capabilities
    # ------------------------------------------------------------------

    def query_cost(self, query: Query, index: Index | None) -> float:
        """Scalar lookup, delegated verbatim (never held in a window:
        scalar calls are the latency-sensitive odd ones out, and the
        facade routes hot-loop pricing through the batch entry points
        anyway)."""
        return self._source.query_cost(query, index)

    def maintenance_cost(self, query: Query, index: Index) -> float:
        return self._source.maintenance_cost(query, index)

    def maintenance_costs(self, queries, index: Index):
        return self._source.maintenance_costs(queries, index)

    def multi_index_cost(
        self, query: Query, indexes: tuple[Index, ...]
    ) -> float:
        return self._source.multi_index_cost(query, indexes)

    # ------------------------------------------------------------------
    # Coalesced entry points
    # ------------------------------------------------------------------

    def pair_costs(
        self, pairs: Sequence[tuple[Query, Index | None]]
    ) -> np.ndarray:
        """Price arbitrary pairs through the shared micro-batch window."""
        return self._coalesce(tuple(pairs))

    def query_costs(self, queries, index: Index | None) -> np.ndarray:
        """One column under one index, fused into the shared window.

        Bit-identical to the source's own ``query_costs`` by the
        kernel contract (all entry points agree bitwise per pair).
        """
        return self._coalesce(
            tuple((query, index) for query in queries)
        )

    def sequential_costs(self, queries) -> np.ndarray:
        """The no-index column, fused into the shared window."""
        return self._coalesce(tuple((query, None) for query in queries))

    # ------------------------------------------------------------------
    # The leader/follower scheduler
    # ------------------------------------------------------------------

    @staticmethod
    def _content_key(pair: tuple[Query, Index | None]) -> tuple:
        query, index = pair
        return (
            query.cache_key,
            None if index is None else index.attributes,
        )

    def _coalesce(
        self, pairs: tuple[tuple[Query, Index | None], ...]
    ) -> np.ndarray:
        if not pairs:
            return np.array([], dtype=np.float64)
        keys = [self._content_key(pair) for pair in pairs]
        deadline = self._deadline_provider()
        entered = time.monotonic()
        statistics = self._statistics
        with self._cond:
            self._active_callers += 1
            statistics.callers += 1
            # Enqueue: get-or-create one shared item per content key.
            # An item already pending or in flight is a dedup hit —
            # somebody else's dispatch will price it for us.
            my_items: dict[tuple, _WorkItem] = {}
            for key, pair in zip(keys, pairs):
                if key in my_items:
                    continue  # intra-call duplicate, one item suffices
                item = self._inflight.get(key)
                if item is None:
                    item = self._pending.get(key)
                if item is None:
                    item = _WorkItem(key, pair)
                    self._pending[key] = item
                    statistics.enqueued_pairs += 1
                    if self._window_opened_at is None:
                        self._window_opened_at = time.monotonic()
                else:
                    statistics.deduped_pairs += 1
                my_items[key] = item
            statistics.peak_window_pairs = max(
                statistics.peak_window_pairs, len(self._pending)
            )
            if len(self._pending) >= self._max_pairs:
                # Wake a leader sleeping out its window: the cap is
                # full, the batch should dispatch now.
                self._cond.notify_all()
            try:
                while not all(
                    item.done for item in my_items.values()
                ):
                    expired = deadline is not None and deadline.expired
                    mine_pending = any(
                        not item.done and item.key in self._pending
                        for item in my_items.values()
                    )
                    if mine_pending and expired:
                        # Deadline detach: dispatch my own pending
                        # subset right now, ignoring the window and any
                        # running leader.  The shared in-flight batch
                        # is untouched, and my dispatch still resolves
                        # the shared items for every other waiter.
                        statistics.deadline_detaches += 1
                        self._dispatch(
                            [
                                item
                                for item in my_items.values()
                                if not item.done
                                and item.key in self._pending
                            ]
                        )
                        continue
                    if mine_pending and not self._leader_active:
                        self._leader_active = True
                        try:
                            self._lead(deadline)
                        finally:
                            self._leader_active = False
                            self._cond.notify_all()
                        continue
                    # Follower: somebody else will resolve my items.
                    self._cond.wait(timeout=_FOLLOWER_POLL_S)
            finally:
                self._active_callers -= 1
                statistics.waiter_wait_seconds_total += max(
                    0.0, time.monotonic() - entered
                )
        results = np.empty(len(pairs), dtype=np.float64)
        for position, key in enumerate(keys):
            item = my_items[key]
            if item.error is not None:
                raise item.error
            results[position] = item.value
        return results

    def _lead(self, deadline: Deadline | None) -> None:
        """Wait the window out, then dispatch one fused batch.

        Caller holds the condition and has claimed leadership.  The
        window is skipped when the service is idle (no other caller
        could contribute pairs), when the leader's own deadline
        expired, or once the pair cap fills.
        """
        statistics = self._statistics
        idle = self._active_callers <= 1
        expired = deadline is not None and deadline.expired
        if idle or expired or self._window_s <= 0:
            statistics.idle_fast_paths += 1
        else:
            statistics.window_waits += 1
            opened = self._window_opened_at
            if opened is None:  # pragma: no cover - defensive
                opened = time.monotonic()
            close_at = opened + self._window_s
            while True:
                if len(self._pending) >= self._max_pairs:
                    statistics.cap_closes += 1
                    break
                remaining = close_at - time.monotonic()
                if remaining <= 0:
                    break
                if deadline is not None and deadline.expired:
                    break
                self._cond.wait(timeout=remaining)
                if not self._pending:
                    # A detaching waiter drained the window under us.
                    return
        if self._pending:
            self._dispatch(list(self._pending.values()))

    def _dispatch(self, items: list[_WorkItem]) -> None:
        """Price ``items`` in one fused batch and resolve them.

        Caller holds the condition; the backend call itself runs
        unlocked (it may be an expensive backend sweep) so arrivals
        keep enqueueing into the next window meanwhile.  The whole
        batch is one unit to the resilient layer below — its terminal
        error, if any, resolves every item and is re-raised by each
        waiter individually.
        """
        statistics = self._statistics
        for item in items:
            del self._pending[item.key]
            self._inflight[item.key] = item
        if not self._pending:
            self._window_opened_at = None
        statistics.batches += 1
        statistics.dispatched_pairs += len(items)
        statistics.max_batch_pairs = max(
            statistics.max_batch_pairs, len(items)
        )
        self._cond.release()
        error: BaseException | None = None
        values = None
        try:
            values = self._source.pair_costs(
                tuple(item.pair for item in items)
            )
        except BaseException as caught:  # noqa: BLE001 - fanned out
            error = caught
        finally:
            self._cond.acquire()
        if error is not None:
            for item in items:
                item.error = error
                item.done = True
                self._inflight.pop(item.key, None)
        else:
            for item, value in zip(items, values.tolist()):
                item.value = value
                item.done = True
                self._inflight.pop(item.key, None)
        self._cond.notify_all()
