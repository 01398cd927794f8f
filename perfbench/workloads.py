"""The benchmark's three workloads, untraced and traced.

Untraced runs time whole requests from outside the program through its
public APIs: ``IndexAdvisor.recommend`` on the one-shot workloads, JSON
lines through ``repro.service.protocol.serve_loop`` on serve-drift.
Traced runs rebuild the one-shot request from the public steps
``recommend`` composes, or drive the same service, with the spans of
``tracing.Recorder`` around each layer's entry points.  Every answer is
checked after the timed loop; a failed check raises ``CheckError``.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import repro.service.daemon
from repro import (
    AdvisorService,
    IndexAdvisor,
    Telemetry,
    build_report,
    swap_local_search,
    syntactically_relevant_candidates,
)
from repro.advisor import run_selection
from repro.core.extend import ExtendAlgorithm
from repro.core.steps import STATUS_COMPLETED
from repro.exceptions import ReproError
from repro.indexes.memory import relative_budget
from repro.workload.query import Workload
from repro.workload.sql import workload_from_sql

import inputs
from check import Checker, CheckError, index_from_label
from client import ServiceClient
from metrics import PER_LAYER
from speed import SpeedProbe
from tracing import FACADE_METHODS, SOURCE_METHODS, Recorder

PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_PROBES = 3
CANDIDATE_WIDTH = 4  # IndexAdvisor.recommend's default
RECOMMENDS_PER_EPOCH = 21
"""Seven per budget share; the first at each share after an update
re-prices what the update invalidated."""
MIN_EPOCHS = 5  # 105 recommends, so ten samples lie beyond p90
MAX_EPOCHS = 12
SERVED = "erp"


@dataclass
class Run:
    """What one run measured."""

    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    """``recommend``/``sweep``/``update`` seconds, ``whatif_calls`` and
    ``relative_cost`` per recommend, ``setup`` seconds per probe."""
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    """Protocol lines that were not ``"ok": true``: each fails the run."""
    layers: dict[str, float] = field(default_factory=dict)
    """Per-layer metrics (traced runs only)."""
    recorder: Recorder | None = None
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    """Machine speed throughout the timed loop (untraced runs only)."""
    spans: list[tuple[float, float]] = field(default_factory=list)
    """``perf_counter`` start and end of each ``samples["recommend"]``."""


@dataclass(frozen=True)
class OneShot:
    request: Callable[[int, int], Workload]
    budget_share: float
    algorithm: str
    min_requests: int


ONE_SHOT = {
    "advise-fig2": OneShot(
        inputs.fig2_request, inputs.FIG2_BUDGET_SHARE, "extend+swap", 1
    ),
    # The report is quadratic in the number of selected indexes, which
    # any noise moves between about 100 and 120: one request per run
    # spread the median by 0.21 between seeds, so take two.
    "advise-erp": OneShot(
        inputs.erp_request, inputs.ERP_BUDGET_SHARE, "extend", 2
    ),
}


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(mode: str, workload: Workload) -> list[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes (``probe.py``)."""
    job = json.dumps({
        "mode": mode,
        "schema": inputs.schema_spec(workload.schema),
        "templates": inputs.templates(workload) if mode == "service" else [],
    })
    seconds = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(PROBE)],
            input=job,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds.append(float(done.stdout.split()[-1]))
    return seconds


def _check(checker: Checker, reference: Workload, result) -> float:
    return checker.check(
        reference,
        result.configuration,
        total_cost=result.total_cost,
        memory=result.memory,
        budget=result.budget,
    )


# ----------------------------------------------------------------------
# One-shot workloads: advise-fig2, advise-erp
# ----------------------------------------------------------------------


def advise(name: str, seed: int, seconds: float) -> Run:
    """Cold ``recommend`` calls, each on a fresh advisor and its own
    seeded input: ``min_requests``, then more while the next is due to
    end within ``seconds``.  The extra requests only add timings, so
    the counts stay the same for a seed however fast the machine is."""
    spec = ONE_SHOT[name]
    run = Run()
    answers = []
    started = time.perf_counter()
    last = 0.0
    with run.probe:
        while run.attempted < spec.min_requests or (
            time.perf_counter() - started + last <= seconds
        ):
            reference = spec.request(seed, run.attempted)
            sql = inputs.templates(reference)
            advisor = IndexAdvisor(reference.schema)
            run.attempted += 1
            began = time.perf_counter()
            try:
                result = advisor.recommend(
                    sql, budget_share=spec.budget_share,
                    algorithm=spec.algorithm,
                ).result
            except ReproError:
                run.failed += 1
                continue
            last = time.perf_counter() - began
            if result.status != STATUS_COMPLETED:
                run.failed += 1
                continue
            run.samples["recommend"].append(last)
            run.spans.append((began, began + last))
            fixed = run.attempted <= spec.min_requests
            if fixed:
                run.samples["whatif_calls"].append(
                    advisor.optimizer.statistics.calls
                )
            answers.append((reference, result, fixed))
    run.peak_rss_mb = peak_rss_mb()
    first = spec.request(seed, 0)
    run.samples["setup"] = measure_setup("advisor", first)
    checker = Checker(first.schema)
    for reference, result, fixed in answers:
        relative_cost = _check(checker, reference, result)
        if fixed:
            run.samples["relative_cost"].append(relative_cost)
    return run


def advise_traced(name: str, seed: int) -> Run:
    """One request through ``recommend``, untraced, then rebuilt from
    the public steps ``recommend`` composes, traced.  The two must
    choose the same indexes; their time difference is the tracing
    overhead.  (Untraced first: the traced run's objects would
    otherwise still be alive and slow the untraced one down.)"""
    spec = ONE_SHOT[name]
    reference = spec.request(seed, 0)
    schema = reference.schema
    sql = inputs.templates(reference)
    began = time.perf_counter()
    untraced = IndexAdvisor(schema).recommend(
        sql, budget_share=spec.budget_share, algorithm=spec.algorithm
    ).result
    untraced_s = time.perf_counter() - began
    recorder = Recorder()
    recorder.request = "recommend-1"
    advisor = IndexAdvisor(schema)
    optimizer, resilient = advisor.optimizer, advisor.resilience
    kernel = advisor.kernel_stacks.analytic("vectorized")
    kernel_before = dataclasses.replace(kernel.statistics)
    facade = recorder.proxy(optimizer, "whatif", FACADE_METHODS)
    recorder.wrap_methods(resilient, "resilience", SOURCE_METHODS)
    recorder.wrap_methods(kernel, "kernel", SOURCE_METHODS)
    counts: dict[str, float] = {"sql.templates": len(sql)}
    try:
        with recorder.span("request"):
            with recorder.span("sql"):
                workload = workload_from_sql(schema, sql)
            budget = relative_budget(schema, spec.budget_share)
            with recorder.span("extend"):
                result = run_selection(
                    workload, budget, algorithm="extend", optimizer=facade
                )
            counts["extend.steps"] = len(result.steps)
            counts["extend.whatif_calls"] = result.whatif_calls
            if spec.algorithm == "extend+swap":
                with recorder.span("candidates"):
                    candidates = syntactically_relevant_candidates(
                        workload, CANDIDATE_WIDTH
                    )
                counts["candidates.count"] = len(candidates)
                counts["swap.pool"] = len(candidates)
                telemetry = Telemetry()
                calls = optimizer.statistics.calls
                with recorder.span("swap"):
                    result = swap_local_search(
                        workload, facade, result, budget, candidates,
                        telemetry=telemetry,
                    )
                counts["swap.whatif_calls"] = (
                    optimizer.statistics.calls - calls
                )
                counts["swap.swaps"] = telemetry.metrics.counter(
                    "localsearch.swaps"
                ).value
            before = optimizer.statistics.copy()
            with recorder.span("report"):
                report = build_report(workload, facade, result)
            counts["report.indexes"] = len(report.indexes)
            counts["report.whatif_requests"] = (
                optimizer.statistics.since(before).total_requests
            )
    finally:
        recorder.unwrap()
    whatif = optimizer.statistics
    counts["whatif.requests"] = whatif.total_requests
    counts["whatif.hit_rate"] = whatif.hit_rate
    counts["whatif.cache_entries"] = len(
        optimizer.export_cache(workload.queries)["cost"]
    )
    counts["resilience.retries"] = resilient.statistics.retries
    counts["resilience.fallback_calls"] = resilient.statistics.fallback_calls
    _kernel_counts(counts, kernel_before, kernel.statistics)
    if (
        set(untraced.configuration) != set(result.configuration)
        or untraced.total_cost != result.total_cost
    ):
        raise CheckError(
            "the traced public steps and recommend() disagree: "
            f"{len(result.configuration)} vs "
            f"{len(untraced.configuration)} indexes, total_cost "
            f"{result.total_cost!r} vs {untraced.total_cost!r}"
        )
    run = Run(attempted=1, recorder=recorder)
    run.samples["relative_cost"].append(
        _check(Checker(schema), reference, result)
    )
    traced_s = recorder.by_layer()["request", "recommend"]["seconds"]
    run.layers = _layer_metrics(recorder, counts, traced_s - untraced_s)
    return run


def _kernel_counts(counts: dict, before, after) -> None:
    batches = after.batch_calls - before.batch_calls
    counts["kernel.batches"] = batches
    counts["kernel.pairs_per_batch"] = (
        (after.batch_pairs - before.batch_pairs) / batches if batches else 0.0
    )


# Span name -> (time metric, self-time metric, call-count metric, the
# kind of request the layer is averaged over).
_SPAN_METRICS = {
    "sql": ("sql.parse_s", None, None, "update"),
    "candidates": ("candidates.s", None, None, "recommend"),
    "extend": ("extend.s", None, None, "recommend"),
    "swap": ("swap.s", "swap.self_s", None, "recommend"),
    "report": ("report.s", None, None, "recommend"),
    "whatif": (None, "whatif.self_s", None, "recommend"),
    "resilience": (None, "resilience.self_s", "resilience.calls",
                   "recommend"),
    "kernel": ("kernel.busy_s", None, None, "recommend"),
}


def _layer_metrics(
    recorder: Recorder, counts: dict[str, float], overhead_s: float
) -> dict[str, float]:
    """Every per-layer metric: span times and call counts per request
    of the kind the layer serves, then ``counts``.  A one-shot request
    parses its own SQL, so without updates ``sql.*`` is per recommend."""
    layers = recorder.by_layer()
    requests = {
        kind: entry["count"]
        for (name, kind), entry in layers.items()
        if name == "request"
    }
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, (seconds, own, calls, kind) in _SPAN_METRICS.items():
        if kind not in requests:
            kind = "recommend"
        entry = layers.get((name, kind))
        if entry is None:
            continue
        for metric, key in ((seconds, "seconds"), (own, "self"),
                            (calls, "count")):
            if metric:
                metrics[metric] = entry[key] / requests[kind]
    metrics.update(counts)
    metrics["trace.unaccounted_share"] = recorder.unaccounted_share()
    metrics["trace.overhead_s"] = overhead_s
    return metrics


# ----------------------------------------------------------------------
# serve-drift
# ----------------------------------------------------------------------


def serve(seed: int, seconds: float, traced: bool = False) -> Run:
    """One closed-loop client drives a resident ``AdvisorService``:
    register, then epochs of one drift ``update``, recommends cycling
    the budget shares and one sweep, while the next epoch is due to end
    within ``seconds`` (at least ``MIN_EPOCHS``, whose recommends alone
    give the counts, so they stay the same for a seed).

    A traced run traces every other epoch, so the untraced epochs in
    between give the tracing overhead on the same resident state.
    """
    epochs = inputs.serve_epochs(seed, MAX_EPOCHS)
    schema = epochs[0].schema
    run = Run()
    recorder = Recorder() if traced else None
    answers: list[tuple[int, str, dict, float, str]] = []
    traced_latency: list[float] = []
    untraced_latency: list[float] = []
    invalidated: list[int] = []
    service = AdvisorService(schema)
    with ServiceClient(service) as client:

        def send(kind: str, epoch: int, message: dict) -> None:
            run.attempted += 1
            request = f"{kind}-{run.attempted}"
            if recorder is not None:
                recorder.request = request
                with recorder.span("request"):
                    reply, latency = client.call(message)
            else:
                reply, latency = client.call(message)
            ended = time.perf_counter()
            answers.append((epoch, kind, reply, latency, request))
            if not reply.get("ok"):
                run.problems.append(f"{kind} {request}: {reply}")
            if (
                not reply.get("ok")
                or reply.get("status", STATUS_COMPLETED) != STATUS_COMPLETED
                or reply.get("partial")
            ):
                run.failed += 1
                return
            run.samples[kind].append(latency)
            if kind == "recommend":
                run.spans.append((ended - latency, ended))
            if kind == "recommend" and epoch <= MIN_EPOCHS:
                run.samples["whatif_calls"].append(
                    reply["gauges"]["whatif.calls"]
                )
                if recorder is not None:
                    (traced_latency if recorder.enabled
                     else untraced_latency).append(latency)

        send("register", 0, {
            "op": "register", "workload": SERVED,
            "queries": inputs.templates(epochs[0]),
        })
        if recorder is not None:
            before = _trace_service(recorder, service, invalidated)
        started = time.perf_counter()
        last = 0.0
        epoch = 0
        try:
            with run.probe if recorder is None else nullcontext():
                while epoch + 1 < len(epochs) and (
                    epoch < MIN_EPOCHS
                    or time.perf_counter() - started + last <= seconds
                ):
                    epoch += 1
                    if recorder is not None:
                        recorder.enabled = epoch % 2 == 1
                    began = time.perf_counter()
                    send("update", epoch, {
                        "op": "update", "workload": SERVED,
                        "queries": inputs.templates(epochs[epoch]),
                    })
                    shares = inputs.SERVE_BUDGET_SHARES
                    for position in range(RECOMMENDS_PER_EPOCH):
                        send("recommend", epoch, {
                            "op": "recommend", "workload": SERVED,
                            "budget_share": shares[position % len(shares)],
                        })
                    send("sweep", epoch, {
                        "op": "sweep", "workload": SERVED,
                        "budget_sweep": inputs.SWEEP_SPEC,
                    })
                    last = time.perf_counter() - began
        finally:
            if recorder is not None:
                recorder.enabled = True
                recorder.unwrap()
        run.peak_rss_mb = peak_rss_mb()
        if recorder is not None:
            after = _service_counters(service)
            after["cache_entries"] = len(
                service.kernel_stacks.stack("vectorized")[1].export_cache(
                    [query for workload in epochs for query in workload]
                )["cost"]
            )
    if recorder is None:
        run.samples["setup"] = measure_setup("service", epochs[0])
    _check_service(schema, epochs, answers, run)
    if recorder is not None:
        run.recorder = recorder
        run.layers = _serve_layers(
            recorder, answers, before, after, invalidated,
            statistics.median(traced_latency)
            - statistics.median(untraced_latency),
        )
    return run


def _trace_service(recorder: Recorder, service, invalidated: list[int]):
    """Wrap the service's layers; returns the counters before tracing."""
    resilient, optimizer = service.kernel_stacks.stack("vectorized")
    recorder.wrap_methods(optimizer, "whatif", FACADE_METHODS)
    coalescer = service.coalescer("vectorized")
    if coalescer is not None:
        recorder.wrap_methods(coalescer, "coalescer", SOURCE_METHODS)
    recorder.wrap_methods(resilient, "resilience", SOURCE_METHODS)
    recorder.wrap_methods(
        service.kernel_stacks.analytic("vectorized"), "kernel",
        SOURCE_METHODS,
    )
    recorder.wrap_attribute(ExtendAlgorithm, "select", "extend")
    recorder.wrap_attribute(repro.service.daemon, "workload_from_sql", "sql")

    registry = service.registry
    update = registry.update

    def counted_update(name, workload):
        registration, count = update(name, workload)
        if recorder.enabled:
            invalidated.append(count)
        return registration, count

    recorder.replace(registry, "update", counted_update)
    return _service_counters(service)


def _service_counters(service) -> dict:
    """Copies of the service's kernel, resilience and coalescer
    counters."""
    coalescer = service.coalescer("vectorized")
    return {
        "kernel": dataclasses.replace(
            service.kernel_stacks.vectorized_statistics()
        ),
        "resilience": service.kernel_stacks.stack("vectorized")[0]
        .statistics.copy(),
        "coalescer": None if coalescer is None
        else coalescer.statistics.copy(),
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _serve_layers(
    recorder, answers, before, after, invalidated, overhead_s
) -> dict[str, float]:
    """Per-layer metrics of the traced epochs: spans, the public
    response fields and gauges, and counter deltas over the run."""
    traced = {
        span.request for span in recorder.spans if span.name == "request"
    }
    replies = defaultdict(list)
    for _, kind, reply, latency, request in answers:
        if request in traced and reply.get("ok"):
            replies[kind].append((reply, latency))
    recommends, sweeps = replies["recommend"], replies["sweep"]
    gauges = [reply["gauges"] for reply, _ in recommends]
    calls = sum(g["whatif.calls"] for g in gauges)
    hits = sum(g["whatif.cache_hits"] for g in gauges)
    counts = {
        "sql.templates": _mean(r["queries"] for r, _ in replies["update"]),
        "extend.steps": _mean(g["extend.steps"] for g in gauges),
        "extend.whatif_calls": _mean(g["extend.whatif_calls"] for g in gauges),
        "whatif.requests": (calls + hits) / max(len(gauges), 1),
        "whatif.hit_rate": hits / (calls + hits) if calls + hits else 0.0,
        "whatif.cache_entries": after["cache_entries"],
        "resilience.retries": (
            after["resilience"].retries - before["resilience"].retries
        ),
        "resilience.fallback_calls": (
            after["resilience"].fallback_calls
            - before["resilience"].fallback_calls
        ),
        "sweep.s": _mean(r["wall_seconds"] for r, _ in sweeps),
        "sweep.backend_calls": _mean(
            r["gauges"]["sweep.backend_calls"] for r, _ in sweeps
        ),
        "service.wall_s": _mean(r["wall_seconds"] for r, _ in recommends),
        "service.queue_s": _mean(r["queue_seconds"] for r, _ in recommends),
        "service.overhead_s": statistics.median([
            latency - r["queue_seconds"] - r["wall_seconds"]
            for r, latency in recommends
        ]),
        "service.warm_share": _mean(r["warm"] for r, _ in recommends),
        "registry.invalidated": _mean(invalidated),
    }
    _kernel_counts(counts, before["kernel"], after["kernel"])
    first, last = before["coalescer"], after["coalescer"]
    if last is not None:
        callers = last.callers - first.callers
        enqueued = last.enqueued_pairs - first.enqueued_pairs
        counts["coalescer.idle_share"] = (
            (last.idle_fast_paths - first.idle_fast_paths) / callers
            if callers else 0.0
        )
        counts["coalescer.dedup_rate"] = (
            (last.deduped_pairs - first.deduped_pairs) / enqueued
            if enqueued else 0.0
        )
    return _layer_metrics(recorder, counts, overhead_s)


def _check_service(schema, epochs, answers, run: Run) -> None:
    """Every answer within its budget at the reference cost, and per
    epoch the last recommend at the largest share equal to a cold Extend
    selection (``recommend``'s selection step, without its report)."""
    checker = Checker(schema)
    largest = max(inputs.SERVE_BUDGET_SHARES)
    last_at_largest: dict[int, dict] = {}
    for epoch, kind, reply, _, _ in answers:
        if not reply.get("ok"):
            continue
        reference = epochs[epoch]
        if kind == "recommend":
            relative_cost = _check_reply(checker, reference, reply)
            if epoch <= MIN_EPOCHS:
                run.samples["relative_cost"].append(relative_cost)
            if reply["budget"] == relative_budget(schema, largest):
                last_at_largest[epoch] = reply
        elif kind == "sweep":
            for point in reply["points"]:
                _check_reply(checker, reference, point)
    for epoch, reply in last_at_largest.items():
        cold = run_selection(
            epochs[epoch],
            relative_budget(schema, largest),
            algorithm="extend",
            optimizer=IndexAdvisor(schema).optimizer,
        )
        labels = sorted(index.label(schema) for index in cold.configuration)
        if labels != sorted(reply["indexes"]):
            raise CheckError(
                f"epoch {epoch}: the served recommend differs from a cold "
                f"Extend selection ({len(reply['indexes'])} vs "
                f"{len(labels)} indexes)"
            )


def _check_reply(checker: Checker, reference: Workload, reply: dict) -> float:
    indexes = [
        index_from_label(checker.schema, label) for label in reply["indexes"]
    ]
    return checker.check(
        reference,
        indexes,
        total_cost=reply["total_cost"],
        memory=reply["memory"],
        budget=reply["budget"],
    )
