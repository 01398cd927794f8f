"""The advisor service: bounded concurrency, deadlines, residency.

An :class:`AdvisorService` is one schema's long-lived recommendation
daemon.  Everything expensive stays resident between requests — the
one cost stack (the shared :class:`~repro.cost.whatif.WhatIfOptimizer`
cache, the compiled kernel's workload packs) — so a repeated request
for a registered workload makes no backend what-if call.

Admission is fail-fast: at most ``max_concurrency`` requests execute
while up to ``queue_depth`` more wait; a submit beyond that raises
:class:`~repro.exceptions.ServiceOverloadedError` *synchronously*
(carrying a ``retry_after_s`` backoff hint) instead of queueing
unboundedly.  Every request's deadline starts at submission, so queue
wait counts against it and an overloaded service degrades to tagged
best-so-far results rather than missing deadlines silently.

The service is crash-tolerant and restartable:

* With a ``snapshot_dir`` the registered workloads and their what-if
  cache entries are persisted (checksummed, atomic) on an interval, on
  demand, and on drain, and restored at construction — see
  :mod:`repro.service.durability`.
* A per-request **watchdog** abandons and replaces any worker thread
  that exceeds its request deadline by more than ``watchdog_grace_s``,
  resolving the request with
  :class:`~repro.exceptions.WatchdogTimeoutError` — one hung pricing
  call can never wedge a pool slot forever.
* :meth:`drain` implements graceful shutdown: stop admission, expire
  every in-flight deadline so running algorithms degrade to best-so-far
  at their next step boundary, force-resolve whatever is still stuck
  after ``drain_timeout_s``, snapshot, and return.
* :meth:`health` and :meth:`ready` report queue depth, pool liveness,
  snapshot age, and circuit-breaker states for supervisors.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeoutError
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.advisor import (
    CostStack,
    check_algorithm,
    coerce_budget,
    run_selection,
)
from repro.core.steps import STATUS_DEGRADED, SelectionResult
from repro.core.sweep import SweepResult, sweep_select
from repro.cost.whatif import CostSource
from repro.exceptions import (
    ExperimentError,
    ServiceDrainingError,
    ServiceError,
    ServiceOverloadedError,
    SnapshotError,
    WatchdogTimeoutError,
)
from repro.resilience import Deadline, ResiliencePolicy
from repro.service import durability
from repro.service.registry import (
    WorkloadRegistration,
    WorkloadRegistry,
)
from repro.service.request import (
    RecommendRequest,
    RecommendResponse,
    SweepRequest,
    SweepResponse,
)
from repro.service.streams import EventStream, StreamSink
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.workload.query import Query, Workload
from repro.workload.schema import Schema
from repro.workload.sql import workload_from_sql

__all__ = ["AdvisorService", "ServiceStatistics", "ServiceTicket"]

logger = logging.getLogger("repro.service")

_RETRY_AFTER_FLOOR_S = 0.05
_RETRY_AFTER_DEFAULT_LATENCY_S = 0.5
_RECENT_LATENCY_WINDOW = 32


def _index_labels(
    result: SelectionResult, schema: Schema
) -> tuple[str, ...]:
    """Labels of a result's indexes, in (table, attributes) order."""
    return tuple(
        index.label(schema)
        for index in sorted(
            result.configuration,
            key=lambda index: (index.table_name, index.attributes),
        )
    )


@dataclass
class ServiceStatistics:
    """Lifetime counters of one service (the ``service.*`` gauges)."""

    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    degraded: int = 0
    failed: int = 0
    warm_requests: int = 0
    in_flight: int = 0
    queue_depth: int = 0
    peak_in_flight: int = 0
    peak_queue_depth: int = 0
    queue_wait_seconds_total: float = 0.0
    wall_seconds_total: float = 0.0
    watchdog_cancelled: int = 0
    drain_forced: int = 0
    snapshot_writes: int = 0
    snapshot_restores: int = 0
    snapshot_corruptions: int = 0
    snapshot_sequence: int = 0

    def copy(self) -> ServiceStatistics:
        """Point-in-time copy (the live object mutates in place)."""
        return ServiceStatistics(**vars(self))

    @property
    def warm_request_rate(self) -> float:
        """Share of completed requests that ran warm (against a
        workload version an earlier request had priced)."""
        return (
            self.warm_requests / self.completed if self.completed else 0.0
        )


class ServiceTicket:
    """Handle of one admitted request: result future + event stream."""

    def __init__(
        self, request_id: str, stream: EventStream, future: Future
    ) -> None:
        self.request_id = request_id
        self.stream = stream
        self._future = future

    def done(self) -> bool:
        """True once the request finished (successfully or not)."""
        return self._future.done()

    def result(self, timeout_s: float | None = None) -> RecommendResponse:
        """Block until the response is ready (re-raises failures)."""
        return self._future.result(timeout=timeout_s)

    def outcome(
        self, timeout_s: float | None = None
    ) -> tuple[RecommendResponse | None, BaseException | None]:
        """The terminal outcome without re-raising.

        Exactly one of the pair is non-``None`` once the request
        finished; used by the chaos harness to assert the
        one-terminal-response-per-request invariant.
        """
        error = self._future.exception(timeout=timeout_s)
        if error is not None:
            return None, error
        return self._future.result(timeout=0), None


class _RequestRecord:
    """Book-keeping of one admitted request (service-internal)."""

    __slots__ = (
        "request_id",
        "stream",
        "future",
        "deadline",
        "submitted_at",
        "worker",
        "terminal",
    )

    def __init__(
        self,
        request_id: str,
        stream: EventStream,
        future: Future,
        deadline: Deadline,
        submitted_at: float,
    ) -> None:
        self.request_id = request_id
        self.stream = stream
        self.future = future
        self.deadline = deadline
        self.submitted_at = submitted_at
        self.worker: threading.Thread | None = None
        self.terminal = False


class _WorkerPool:
    """Fixed-capacity pool whose hung members can be replaced.

    Unlike :class:`~concurrent.futures.ThreadPoolExecutor`, a worker
    stuck inside a task can be *abandoned*: the watchdog marks it, a
    replacement thread is spawned immediately (capacity is restored),
    and the abandoned thread exits on its own the moment its hung call
    ever returns — without consuming a shutdown sentinel or picking up
    further tasks.  Tasks must not raise; a task that does is logged
    and the worker survives (simulated worker death in the chaos
    harness exercises exactly this).
    """

    def __init__(
        self, size: int, *, name_prefix: str = "repro-service"
    ) -> None:
        self._name_prefix = name_prefix
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._abandoned: set[int] = set()
        self._abandoned_total = 0
        self._spawned = 0
        self._closed = False
        for _ in range(size):
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._spawned += 1
            thread = threading.Thread(
                target=self._work,
                name=f"{self._name_prefix}-worker-{self._spawned}",
                daemon=True,
            )
            self._threads.append(thread)
        thread.start()

    def _work(self) -> None:
        me = threading.current_thread()
        while True:
            task = self._tasks.get()
            if task is None:
                return
            try:
                task()
            except BaseException:  # noqa: BLE001 - pool must survive
                logger.exception(
                    "worker task raised; the worker survives"
                )
            with self._lock:
                if me.ident in self._abandoned:
                    self._abandoned.discard(me.ident)
                    return

    def submit(self, task: Callable[[], None]) -> None:
        self._tasks.put(task)

    def abandon(self, thread: threading.Thread) -> bool:
        """Mark ``thread`` hung and spawn a replacement.

        Returns False when the thread was already abandoned (or never
        started); the caller must have resolved the thread's current
        request before calling, since its eventual result is discarded.
        """
        with self._lock:
            ident = thread.ident
            if ident is None or ident in self._abandoned:
                return False
            self._abandoned.add(ident)
            self._abandoned_total += 1
            closed = self._closed
        if not closed:
            self._spawn_worker()
        return True

    def alive_workers(self) -> int:
        """Threads currently serving the pool (alive, not abandoned)."""
        with self._lock:
            return sum(
                1
                for thread in self._threads
                if thread.is_alive()
                and thread.ident not in self._abandoned
            )

    @property
    def abandoned_total(self) -> int:
        """Workers ever abandoned by the watchdog (lifetime count)."""
        with self._lock:
            return self._abandoned_total

    def shutdown(
        self, *, wait: bool = True, timeout_s: float | None = None
    ) -> None:
        with self._lock:
            already = self._closed
            self._closed = True
            live = [
                thread
                for thread in self._threads
                if thread.is_alive()
                and thread.ident not in self._abandoned
            ]
        if not already:
            for _ in live:
                self._tasks.put(None)
        if wait:
            end = (
                None
                if timeout_s is None
                else time.monotonic() + timeout_s
            )
            for thread in live:
                thread.join(
                    timeout=None
                    if end is None
                    else max(0.0, end - time.monotonic())
                )


class AdvisorService:
    """A concurrent, deadline-aware recommendation daemon for one schema.

    Parameters
    ----------
    schema:
        The schema every registered workload must belong to.
    max_concurrency:
        Worker threads executing requests (>= 1).
    queue_depth:
        Requests allowed to wait beyond the executing ones (>= 0);
        admission capacity is ``max_concurrency + queue_depth``.
    default_deadline_s:
        Deadline for requests that do not carry their own (``None`` =
        unlimited).  Deadlines start at submission.
    cost_source:
        Primary what-if backend shared by all requests; defaults to the
        compiled kernel.  Flaky sources are wrapped with retries, a
        circuit breaker, and the kernel as fallback exactly as in
        :class:`~repro.advisor.IndexAdvisor`.
    resilience:
        Retry/breaker policy for the shared cost stack.
    whatif_cache_entries:
        Optional LRU bound on the long-lived what-if cost cache
        (``None`` = unbounded); evictions surface as the
        ``whatif.evictions`` gauge.  The facade keeps no maintenance
        store (maintenance is priced from the schema).  The bound does
        not cover the resilient layer's stale answers: they are dropped
        with their queries on ``update``/``evict``.
    clock:
        Monotonic time source (injectable for deterministic tests);
        feeds deadlines, the queue/wall timings, and snapshot age.
        The background watchdog/snapshot threads pace themselves on
        real time regardless (a manual clock cannot wake a thread);
        deterministic tests disable them and call
        :meth:`run_watchdog_once` / :meth:`snapshot_now` directly.
    snapshot_dir:
        Directory for durable snapshots of registrations and their
        what-if cache entries; restored (when present and sane) at
        construction.  ``None`` disables durability.
    snapshot_interval_s:
        Period of the background snapshot thread; ``None``/``0`` means
        snapshots happen only on demand and on drain.
    drain_timeout_s:
        How long :meth:`drain` waits for in-flight requests after
        expiring their deadlines before force-resolving them.
    watchdog_grace_s:
        Extra wall-clock slack past a request's deadline before the
        watchdog abandons its worker.
    watchdog_interval_s:
        Sweep period of the background watchdog thread; ``0`` disables
        the thread (sweeps then only happen via
        :meth:`run_watchdog_once`, which deterministic tests call).
    """

    def __init__(
        self,
        schema: Schema,
        *,
        max_concurrency: int = 2,
        queue_depth: int = 8,
        default_deadline_s: float | None = None,
        cost_source: CostSource | None = None,
        resilience: ResiliencePolicy | None = None,
        whatif_cache_entries: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        snapshot_dir: str | Path | None = None,
        snapshot_interval_s: float | None = None,
        drain_timeout_s: float = 10.0,
        watchdog_grace_s: float = 2.0,
        watchdog_interval_s: float = 0.1,
    ) -> None:
        if max_concurrency < 1:
            raise ServiceError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        if queue_depth < 0:
            raise ServiceError(
                f"queue_depth must be >= 0, got {queue_depth}"
            )
        if drain_timeout_s < 0:
            raise ServiceError(
                f"drain_timeout_s must be >= 0, got {drain_timeout_s}"
            )
        if watchdog_grace_s < 0:
            raise ServiceError(
                f"watchdog_grace_s must be >= 0, got {watchdog_grace_s}"
            )
        if whatif_cache_entries is not None and whatif_cache_entries < 1:
            raise ServiceError(
                "whatif_cache_entries must be >= 1 or None, got "
                f"{whatif_cache_entries}"
            )
        self._schema = schema
        self._max_concurrency = max_concurrency
        self._queue_depth = queue_depth
        self._capacity = max_concurrency + queue_depth
        self._default_deadline_s = default_deadline_s
        self._clock = clock
        self._drain_timeout_s = drain_timeout_s
        self._watchdog_grace_s = watchdog_grace_s
        self._stack = CostStack(
            schema,
            cost_source=cost_source,
            policy=resilience,
            whatif_cache_entries=whatif_cache_entries,
        )
        self._registry = WorkloadRegistry(schema, self._stack)
        self._pool = _WorkerPool(max_concurrency)
        self._lock = threading.Lock()
        self._statistics = ServiceStatistics()
        self._active: dict[str, _RequestRecord] = {}
        self._recent_wall: deque[float] = deque(
            maxlen=_RECENT_LATENCY_WINDOW
        )
        self._request_counter = 0
        self._draining = False
        self._closed = False
        self._stop_event = threading.Event()

        # -- durability -------------------------------------------------
        self._snapshot_dir = (
            Path(snapshot_dir) if snapshot_dir is not None else None
        )
        self._snapshot_lock = threading.Lock()
        self._snapshot_sequence = 0
        self._last_snapshot_at: float | None = None
        self._restore_report: durability.RestoreReport | None = None
        if self._snapshot_dir is not None:
            report = durability.restore_registry(
                self._snapshot_dir,
                schema=schema,
                registry=self._registry,
                stack=self._stack,
            )
            self._restore_report = report
            if report.restored:
                self._statistics.snapshot_restores += 1
                self._statistics.snapshot_sequence = report.sequence
                self._snapshot_sequence = report.sequence
                self._last_snapshot_at = self._clock()
            elif report.corrupt:
                self._statistics.snapshot_corruptions += 1
        self._snapshot_thread: threading.Thread | None = None
        if (
            self._snapshot_dir is not None
            and snapshot_interval_s
            and snapshot_interval_s > 0
        ):
            self._snapshot_thread = threading.Thread(
                target=self._snapshot_loop,
                args=(snapshot_interval_s,),
                name="repro-service-snapshot",
                daemon=True,
            )
            self._snapshot_thread.start()

        # -- watchdog ---------------------------------------------------
        self._watchdog_thread: threading.Thread | None = None
        if watchdog_interval_s and watchdog_interval_s > 0:
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop,
                args=(watchdog_interval_s,),
                name="repro-service-watchdog",
                daemon=True,
            )
            self._watchdog_thread.start()

    # ------------------------------------------------------------------
    # Workload lifecycle
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema this service recommends for."""
        return self._schema

    @property
    def registry(self) -> WorkloadRegistry:
        """The registered-workload table (exposed for inspection)."""
        return self._registry

    @property
    def kernel_stacks(self) -> CostStack:
        """The shared kernel, resilient layer and what-if facade
        (exposed for accounting)."""
        return self._stack

    @property
    def restore_report(self) -> durability.RestoreReport | None:
        """What the startup restore found (``None`` without durability)."""
        return self._restore_report

    def coalescer(self, kernel: str) -> None:
        """Always ``None``: the service has no cross-request pricing
        coalescer; every request prices through the cost stack's
        resilient source.  Kept for callers that still ask for one
        (``perfbench/workloads.py`` treats ``None`` as "no
        coalescer"); remove it once they stop."""
        return None

    def workloads(self) -> tuple[str, ...]:
        """Names of all registered workloads, sorted."""
        return self._registry.names()

    def register_workload(
        self,
        name: str,
        workload: Workload
        | Sequence[str]
        | Sequence[tuple[str, float]]
        | Iterable[Query],
    ) -> WorkloadRegistration:
        """Make a workload resident under ``name``."""
        return self._registry.register(
            name, self._coerce_workload(workload)
        )

    def update_workload(
        self,
        name: str,
        workload: Workload
        | Sequence[str]
        | Sequence[tuple[str, float]]
        | Iterable[Query],
    ) -> WorkloadRegistration:
        """Replace a resident workload; bumps its version and clears
        only the cache entries of dropped-or-changed queries."""
        registration, _ = self._registry.update(
            name, self._coerce_workload(workload)
        )
        return registration

    def evict_workload(self, name: str) -> int:
        """Drop a resident workload; returns invalidated cache entries."""
        return self._registry.evict(name)

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

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def submit(self, request: RecommendRequest) -> ServiceTicket:
        """Admit one request and start it as soon as a worker frees up.

        Validation (unknown workload/algorithm, bad budget, a request
        id already in flight) and admission rejections raise
        synchronously; everything that can only fail later surfaces
        through the ticket's future.
        """
        registration = self._registry.get(request.workload)
        check_algorithm(request.algorithm)
        budget = coerce_budget(
            self._schema, request.budget_share, request.budget_bytes
        )
        # Capture the workload snapshot now: a concurrent
        # update_workload must not tear an admitted request.
        workload = registration.workload
        version = registration.version
        record = self._admit(request.request_id, request.deadline_s)

        def select(optimizer, telemetry) -> SelectionResult:
            return run_selection(
                workload,
                budget,
                algorithm=request.algorithm,
                optimizer=optimizer,
                telemetry=telemetry,
                candidate_width=request.candidate_width,
                deadline=record.deadline,
            )

        def respond(result, **fields) -> RecommendResponse:
            return RecommendResponse(
                result=result,
                indexes=_index_labels(result, workload.schema),
                **fields,
            )

        self._pool.submit(
            lambda: self._run(record, registration, version, select, respond)
        )
        return ServiceTicket(record.request_id, record.stream, record.future)

    def submit_sweep(self, request: SweepRequest) -> ServiceTicket:
        """Admit one multi-budget frontier request.

        The whole sweep holds a single concurrency slot and a single
        deadline: admission control sees one request no matter how many
        budget shares it answers.  Every point prices through the
        resident what-if facade, so a sweep over a warm
        registration re-prices nothing — and per-point progress streams
        on the ticket's event stream (``sweep_point`` records between
        the step events).
        """
        registration = self._registry.get(request.workload)
        # Shares were range-checked by SweepRequest; coercing each one
        # against the schema keeps budget validation synchronous too.
        for share in request.budget_shares:
            coerce_budget(self._schema, share, None)
        workload = registration.workload
        version = registration.version
        record = self._admit(request.request_id, request.deadline_s)

        def on_point(point) -> None:
            # Per-point boundary events between the step events:
            # published straight on the stream (the protocol loop
            # forwards every stream record), so streaming clients
            # watch the frontier fill in point by point.
            record.stream.publish(
                {
                    "type": "sweep_point",
                    "request_id": record.request_id,
                    "budget_share": point.budget_share,
                    "status": point.result.status,
                    "total_cost": point.result.total_cost,
                    "memory": point.result.memory,
                    "whatif_calls": point.whatif_calls,
                }
            )

        def select(optimizer, telemetry) -> SweepResult:
            # on_error="partial": a worker failure mid-sweep degrades
            # to the points already answered (a tagged partial
            # frontier); with nothing answered yet it propagates and
            # fails the request like any other worker death.
            return sweep_select(
                workload,
                optimizer,
                request.budget_shares,
                telemetry=telemetry,
                deadline=record.deadline,
                on_error="partial",
                point_callback=on_point,
            )

        def respond(sweep, **fields) -> SweepResponse:
            return SweepResponse(
                partial=sweep.partial,
                sweep=sweep,
                indexes={
                    point.budget_share: _index_labels(
                        point.result, workload.schema
                    )
                    for point in sweep.points
                },
                **fields,
            )

        self._pool.submit(
            lambda: self._run(record, registration, version, select, respond)
        )
        return ServiceTicket(record.request_id, record.stream, record.future)

    def _admit(
        self, request_id: str | None, deadline_s: float | None
    ) -> _RequestRecord:
        """Admission control shared by every request shape.

        Applies the capacity gate, registers the request record, and
        starts its deadline clock; raises synchronously when the
        service is closed, draining, or at capacity, or when
        ``request_id`` names a request still in flight.
        """
        with self._lock:
            if self._closed:
                raise ServiceError("submit() on a closed AdvisorService")
            if self._draining:
                raise ServiceDrainingError(
                    "service is draining and admits no new requests"
                )
            statistics = self._statistics
            if statistics.in_flight >= self._capacity:
                statistics.rejected += 1
                raise ServiceOverloadedError(
                    f"service at capacity ({self._max_concurrency} "
                    f"executing + {self._queue_depth} queued); "
                    "retry later",
                    retry_after_s=self._retry_after_hint(),
                )
            if request_id and request_id in self._active:
                raise ServiceError(
                    f"request id {request_id!r} is already in flight"
                )
            resolved_id = request_id
            while not resolved_id or resolved_id in self._active:
                # Auto-assigned ids step past explicit ones in flight.
                self._request_counter += 1
                resolved_id = f"req-{self._request_counter}"
            if deadline_s is None:
                deadline_s = self._default_deadline_s
            record = _RequestRecord(
                resolved_id,
                EventStream(resolved_id),
                Future(),
                Deadline(deadline_s, clock=self._clock),
                self._clock(),
            )
            # Counters move only once nothing above can raise: a
            # request counted in flight must also be in _active, or
            # its slot would never be released.
            self._active[resolved_id] = record
            statistics.admitted += 1
            statistics.in_flight += 1
            statistics.peak_in_flight = max(
                statistics.peak_in_flight, statistics.in_flight
            )
            statistics.queue_depth = max(
                0, statistics.in_flight - self._max_concurrency
            )
            statistics.peak_queue_depth = max(
                statistics.peak_queue_depth, statistics.queue_depth
            )
        return record

    def recommend(self, request: RecommendRequest) -> RecommendResponse:
        """Submit and block for the response (the synchronous path)."""
        return self.submit(request).result()

    def sweep(self, request: SweepRequest) -> SweepResponse:
        """Submit a frontier request and block for the response."""
        return self.submit_sweep(request).result()

    def subscribe(self, request_id: str) -> EventStream:
        """The live event stream of an in-flight request."""
        with self._lock:
            record = self._active.get(request_id)
        if record is None:
            raise ServiceError(
                f"no in-flight request with id {request_id!r}"
            )
        return record.stream

    def _retry_after_hint(self) -> float:
        """Estimated seconds until a slot frees (caller holds the lock).

        Queue-theoretic back-of-envelope: the ``queue_depth + 1``
        requests ahead of a retry drain at ``max_concurrency`` per
        mean recent request latency.  Deliberately coarse — it is a
        *hint*, floor-clamped so clients never busy-spin.
        """
        if self._recent_wall:
            latency = sum(self._recent_wall) / len(self._recent_wall)
        else:
            latency = _RETRY_AFTER_DEFAULT_LATENCY_S
        waiting = self._statistics.queue_depth + 1
        return round(
            max(
                _RETRY_AFTER_FLOOR_S,
                latency * waiting / self._max_concurrency,
            ),
            3,
        )

    def _run(
        self,
        record: _RequestRecord,
        registration: WorkloadRegistration,
        version: int,
        select: Callable[..., SelectionResult | SweepResult],
        respond: Callable[..., RecommendResponse | SweepResponse],
    ) -> None:
        """Execute one admitted request on a worker thread.

        ``select(optimizer, telemetry)`` computes the outcome and
        ``respond(outcome, **fields)`` wraps it into the response type;
        the stack, warm flag, gauges and accounting around them are the
        same for every request shape.
        """
        record.worker = threading.current_thread()
        started = self._clock()
        queue_seconds = max(0.0, started - record.submitted_at)
        telemetry = Telemetry(sinks=(StreamSink(record.stream),))
        try:
            optimizer = self._stack.optimizer
            warm = registration.is_priced(version)
            before = optimizer.statistics.copy()
            outcome = select(optimizer, telemetry)
            wall_seconds = max(0.0, self._clock() - started)
            metrics = telemetry.metrics
            self._stack.publish(
                metrics, optimizer.statistics.since(before)
            )
            lifetime = self._account_completion(
                record,
                registration,
                version,
                degraded=outcome.status == STATUS_DEGRADED,
                warm=warm,
                queue_seconds=queue_seconds,
                wall_seconds=wall_seconds,
            )
            if lifetime is None:
                # The watchdog (or drain) already resolved this request;
                # the late result is discarded, never double-counted.
                return
            metrics.publish("service", lifetime)
            metrics.gauge("service.queue_seconds").set(queue_seconds)
            metrics.gauge("service.wall_seconds").set(wall_seconds)
            metrics.gauge("service.warm").set(1 if warm else 0)
            metrics.gauge("service.breaker_state").set(
                self._stack.resilient.statistics.breaker_state.value
            )
            response = respond(
                outcome,
                request_id=record.request_id,
                workload=registration.name,
                workload_version=version,
                status=outcome.status,
                warm=warm,
                wall_seconds=wall_seconds,
                queue_seconds=queue_seconds,
                gauges={
                    name: value
                    for name, value in metrics.snapshot().items()
                    if isinstance(value, (int, float))
                },
            )
            record.stream.finish()
            record.future.set_result(response)
        except BaseException as error:  # noqa: BLE001 - future carries it
            if not self._fail(record, error):
                logger.warning(
                    "late failure of already-resolved request %s: %r",
                    record.request_id,
                    error,
                )
        finally:
            telemetry.close()

    def _account_completion(
        self,
        record: _RequestRecord,
        registration: WorkloadRegistration,
        version: int,
        *,
        degraded: bool,
        warm: bool,
        queue_seconds: float,
        wall_seconds: float,
    ) -> ServiceStatistics | None:
        """Mark a request completed and its workload ``version`` priced
        (later requests there run warm); returns the lifetime counters,
        or ``None`` when the request already reached a terminal state."""
        with self._lock:
            if record.terminal:
                return None
            record.terminal = True
            statistics = self._statistics
            statistics.completed += 1
            if degraded:
                statistics.degraded += 1
            if warm:
                statistics.warm_requests += 1
            statistics.queue_wait_seconds_total += queue_seconds
            statistics.wall_seconds_total += wall_seconds
            self._recent_wall.append(wall_seconds)
            registration.served += 1
            registration.mark_priced(version)
            self._release_slot(record)
            return statistics.copy()

    def _fail(
        self,
        record: _RequestRecord,
        error: BaseException,
        *,
        watchdog: bool = False,
        drain: bool = False,
    ) -> bool:
        """Resolve a request with an error; False if already terminal."""
        with self._lock:
            if record.terminal:
                return False
            record.terminal = True
            statistics = self._statistics
            statistics.failed += 1
            if watchdog:
                statistics.watchdog_cancelled += 1
            if drain:
                statistics.drain_forced += 1
            self._release_slot(record)
        record.stream.finish()
        record.future.set_exception(error)
        return True

    def _release_slot(self, record: _RequestRecord) -> None:
        """Free admission capacity (caller holds the lock)."""
        statistics = self._statistics
        statistics.in_flight -= 1
        statistics.queue_depth = max(
            0, statistics.in_flight - self._max_concurrency
        )
        self._active.pop(record.request_id, None)

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------

    def _watchdog_loop(self, interval_s: float) -> None:
        while not self._stop_event.wait(interval_s):
            try:
                self.run_watchdog_once()
            except Exception:  # pragma: no cover - must never die
                logger.exception("watchdog sweep failed")

    def run_watchdog_once(self) -> int:
        """One watchdog sweep; returns how many requests were cancelled.

        A request is overdue once the service clock passed its deadline
        by more than ``watchdog_grace_s`` *and* a worker picked it up
        (a queued overdue request costs nothing — it degrades the
        moment it starts).  Overdue requests are resolved with
        :class:`~repro.exceptions.WatchdogTimeoutError` and their
        workers abandoned and replaced, so a hung backend call can
        never wedge a pool slot.
        """
        now = self._clock()
        # Eligibility is snapshotted under the lock *before* the first
        # cancel: abandoning a worker spawns a replacement that starts
        # the next queued (likely also overdue) request immediately,
        # and that fresh start must wait for the next sweep instead of
        # being swept in the same pass it was born into.
        with self._lock:
            overdue = [
                record
                for record in self._active.values()
                if not record.terminal
                and record.worker is not None
                and record.deadline.expires_at is not None
                and now
                >= record.deadline.expires_at + self._watchdog_grace_s
            ]
        cancelled = 0
        for record in overdue:
            if self._cancel_overdue(record, watchdog=True):
                cancelled += 1
        return cancelled

    def _cancel_overdue(
        self,
        record: _RequestRecord,
        *,
        watchdog: bool = False,
        drain: bool = False,
    ) -> bool:
        reason = "drain timeout" if drain else "watchdog"
        error = WatchdogTimeoutError(
            f"request {record.request_id!r} exceeded its deadline by "
            f"more than the {self._watchdog_grace_s}s grace period "
            f"({reason}); its worker was abandoned and replaced"
        )
        if not self._fail(
            record, error, watchdog=watchdog, drain=drain
        ):
            return False
        worker = record.worker
        if worker is not None and worker.is_alive():
            self._pool.abandon(worker)
        return True

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def _snapshot_loop(self, interval_s: float) -> None:
        while not self._stop_event.wait(interval_s):
            try:
                self.snapshot_now()
            except SnapshotError as error:  # pragma: no cover - disk full
                logger.warning("periodic snapshot failed: %s", error)

    def snapshot_now(self) -> Path:
        """Write a durable snapshot immediately; returns its path.

        Raises :class:`~repro.exceptions.SnapshotError` when no
        ``snapshot_dir`` was configured or the write failed.
        """
        if self._snapshot_dir is None:
            raise SnapshotError(
                "no snapshot directory configured for this service"
            )
        with self._snapshot_lock:
            with self._lock:
                self._snapshot_sequence += 1
                sequence = self._snapshot_sequence
            path = durability.write_snapshot(
                self._snapshot_dir,
                schema=self._schema,
                registry=self._registry,
                sequence=sequence,
                stack=self._stack,
            )
            with self._lock:
                self._statistics.snapshot_writes += 1
                self._statistics.snapshot_sequence = sequence
                self._last_snapshot_at = self._clock()
        return path

    def snapshot_age_seconds(self) -> float | None:
        """Seconds since the last snapshot write or restore (``None``
        when durability is off or nothing was ever written)."""
        with self._lock:
            last = self._last_snapshot_at
        if last is None:
            return None
        return max(0.0, self._clock() - last)

    # ------------------------------------------------------------------
    # Observability and shutdown
    # ------------------------------------------------------------------

    @property
    def statistics(self) -> ServiceStatistics:
        """Point-in-time copy of the lifetime counters."""
        with self._lock:
            return self._statistics.copy()

    def gauges(self) -> dict[str, float]:
        """The current ``service.*`` gauge values.

        ``service.breaker_state`` reports the cost stack's breaker:
        0 closed, 1 half-open, 2 open.  ``service.snapshot_age_seconds``
        is -1 when no snapshot was ever written or restored.
        """
        registry = MetricsRegistry()
        registry.publish("service", self.statistics)
        registry.gauge("service.breaker_state").set(
            self._stack.resilient.statistics.breaker_state.value
        )
        age = self.snapshot_age_seconds()
        registry.gauge("service.snapshot_age_seconds").set(
            -1.0 if age is None else age
        )
        registry.gauge("service.pool_alive").set(
            self._pool.alive_workers()
        )
        registry.gauge("service.pool_abandoned").set(
            self._pool.abandoned_total
        )
        return {
            name: value
            for name, value in registry.snapshot().items()
            if isinstance(value, (int, float))
        }

    def health(self) -> dict:
        """Liveness report for supervisors (the ``health`` protocol op).

        JSON-safe: status, admission pressure, worker-pool liveness,
        watchdog counters, snapshot freshness, and the circuit breaker's
        state.
        """
        with self._lock:
            statistics = self._statistics.copy()
            closed = self._closed
            draining = self._draining
        if closed:
            status = "closed"
        elif draining:
            status = "draining"
        else:
            status = "ok"
        breaker = self._stack.resilient.statistics.breaker_state
        age = self.snapshot_age_seconds()
        return {
            "status": status,
            "in_flight": statistics.in_flight,
            "queue_depth": statistics.queue_depth,
            "admitted": statistics.admitted,
            "completed": statistics.completed,
            "failed": statistics.failed,
            "pool": {
                "size": self._max_concurrency,
                "alive": self._pool.alive_workers(),
                "abandoned": self._pool.abandoned_total,
            },
            "watchdog": {
                "enabled": self._watchdog_thread is not None,
                "grace_s": self._watchdog_grace_s,
                "cancelled": statistics.watchdog_cancelled,
            },
            "snapshots": {
                "enabled": self._snapshot_dir is not None,
                "directory": (
                    str(self._snapshot_dir)
                    if self._snapshot_dir is not None
                    else None
                ),
                "sequence": statistics.snapshot_sequence,
                "age_seconds": age,
                "writes": statistics.snapshot_writes,
                "restores": statistics.snapshot_restores,
                "corruptions": statistics.snapshot_corruptions,
            },
            "breaker": breaker.name.lower(),
        }

    def ready(self) -> dict:
        """Admission readiness (the ``ready`` protocol op).

        ``{"ready": bool, "reason": str}`` — ready means a submit right
        now would not be refused for lifecycle reasons (it may still be
        refused for overload, which is backpressure, not unreadiness).
        """
        with self._lock:
            closed = self._closed
            draining = self._draining
        if closed:
            return {"ready": False, "reason": "closed"}
        if draining:
            return {"ready": False, "reason": "draining"}
        if self._pool.alive_workers() < 1:
            return {"ready": False, "reason": "no live workers"}
        return {"ready": True, "reason": "ok"}

    @staticmethod
    def _await_records(
        records: list[_RequestRecord], timeout_s: float
    ) -> list[_RequestRecord]:
        """Wait up to ``timeout_s`` total for the records' futures;
        returns those still unresolved.

        Paces on real time on purpose: it waits for real worker
        threads, which an injected manual clock cannot advance.
        """
        end = time.monotonic() + max(0.0, timeout_s)
        pending: list[_RequestRecord] = []
        for record in records:
            remaining = end - time.monotonic()
            if remaining > 0:
                try:
                    record.future.exception(timeout=remaining)
                except _FutureTimeoutError:
                    pass
            if not record.future.done():
                pending.append(record)
        return pending

    def drain(self, timeout_s: float | None = None) -> ServiceStatistics:
        """Gracefully wind down: stop admission, degrade, snapshot.

        1. Admission stops (`submit` raises
           :class:`~repro.exceptions.ServiceDrainingError`).
        2. In-flight requests get up to ``timeout_s`` (default
           ``drain_timeout_s``) to finish naturally.
        3. Whatever is still running then has its deadline expired, so
           the algorithms return tagged best-so-far results at their
           next step boundary; they get ``watchdog_grace_s`` to do so.
        4. Requests *still* unresolved — genuinely hung workers — are
           force-resolved with
           :class:`~repro.exceptions.WatchdogTimeoutError` and their
           workers abandoned.
        5. With durability configured, a final snapshot is written.

        Idempotent; returns the post-drain lifetime counters.
        """
        timeout = (
            self._drain_timeout_s if timeout_s is None else timeout_s
        )
        with self._lock:
            self._draining = True
            records = list(self._active.values())
        pending = self._await_records(records, timeout)
        if pending:
            for record in pending:
                record.deadline.expire_now()
            pending = self._await_records(
                pending, self._watchdog_grace_s
            )
        for record in pending:
            self._cancel_overdue(record, drain=True)
        if self._snapshot_dir is not None:
            try:
                self.snapshot_now()
            except SnapshotError as error:
                logger.warning("drain snapshot failed: %s", error)
        return self.statistics

    def close(self, wait: bool = True) -> None:
        """Stop admitting requests and shut the worker pool down.

        ``wait=True`` performs a full :meth:`drain` first (finish or
        degrade in-flight work, final snapshot); ``wait=False`` only
        snapshots current state and returns without joining workers.
        """
        with self._lock:
            if self._closed:
                return
            self._draining = True
        if wait:
            self.drain()
        elif self._snapshot_dir is not None:
            try:
                self.snapshot_now()
            except SnapshotError as error:
                logger.warning("close snapshot failed: %s", error)
        with self._lock:
            self._closed = True
        self._stop_event.set()
        self._pool.shutdown(
            wait=wait, timeout_s=self._drain_timeout_s
        )

    def __enter__(self) -> AdvisorService:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
