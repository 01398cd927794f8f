"""Command-line interface: ``python -m repro`` or ``repro-advisor``.

Two subcommands:

* ``advise`` — run an index-selection algorithm on one of the built-in
  workloads and print the recommended configuration, e.g.::

      python -m repro advise --workload tpcc --budget 0.5
      python -m repro advise --workload appendix-c --algorithm cophy \\
          --budget 0.2 --candidates 200
      python -m repro advise --budget 0.3 --trace run.jsonl --metrics
      python -m repro advise --budget 0.3 --deadline 5 \\
          --fault-rate 0.2 --max-retries 5

  ``--trace FILE`` writes a JSON-lines telemetry trace (spans, step
  events, final metrics — see docs/OBSERVABILITY.md); ``--metrics``
  prints the metrics table; ``--steps`` prints the construction-step
  table (Extend only).  ``--deadline`` bounds the selection wall-clock
  (best-so-far results come back tagged ``degraded``); ``--fault-rate``
  injects seeded transient cost-backend failures (the resilience
  harness), retried up to ``--max-retries`` times before the analytic
  fallback prices the call.

* ``experiment`` — run one of the paper-artifact harnesses, e.g.::

      python -m repro experiment table1
      python -m repro experiment fig5 -- --row-cap 20000

  (arguments after ``--`` are forwarded to the experiment's own CLI).

* ``serve`` — run the advisor as a network-free JSON-lines daemon over
  stdin/stdout (see docs/SERVICE.md), e.g.::

      python -m repro serve --workload tpcc --max-concurrency 4 \\
          --queue-depth 8 --default-deadline 5 \\
          --snapshot-dir /var/lib/repro --snapshot-interval 30

  The built-in workload is pre-registered under its name; clients then
  send one JSON object per line (``register``/``update``/``evict``/
  ``recommend``/``stats``/``health``/``ready``/``snapshot``/
  ``shutdown``).  Status chatter goes to stderr — stdout carries only
  protocol lines.  With ``--snapshot-dir`` the daemon restores its
  registrations and what-if cache entries from the last durable snapshot
  at startup and persists them on the given interval and on shutdown;
  SIGTERM triggers a graceful drain (finish or deadline-degrade
  in-flight requests, final snapshot) and exit 0.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.cophy.solver import CoPhyAlgorithm
from repro.core.extend import ExtendAlgorithm
from repro.core.steps import SelectionResult, format_steps
from repro.core.sweep import parse_budget_sweep, sweep_select
from repro.cost.kernel import VectorizedCostSource
from repro.cost.whatif import WhatIfOptimizer
from repro.exceptions import ExperimentError, ReproError
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
    candidates_h1m,
    syntactically_relevant_candidates,
)
from repro.indexes.memory import relative_budget
from repro.resilience import (
    Deadline,
    FaultInjectingCostSource,
    ResiliencePolicy,
    ResilientCostSource,
)
from repro.service import AdvisorService, serve_loop
from repro.telemetry import (
    NULL_TELEMETRY,
    JsonLinesSink,
    Telemetry,
    render_metrics_table,
)
from repro.workload.compression import pricing_prepass
from repro.workload.enterprise import (
    EnterpriseConfig,
    generate_enterprise_workload,
)
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.query import Workload
from repro.workload.stats import WorkloadStatistics
from repro.workload.tpcc import tpcc_workload

__all__ = ["main"]

_EXPERIMENTS = (
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
    "whatif_calls", "ablations",
)
_ALGORITHMS = ("extend", "cophy", "h1", "h2", "h3", "h4", "h4s", "h5")


def _positive_int(text: str) -> int:
    """Argparse ``type=`` for flags that must be a positive integer.

    A clean one-line usage error beats the deep ``ServiceError`` (or
    worse, ``ValueError``) stack trace the library layers would raise
    long after parsing.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """Argparse ``type=`` for flags that must be a positive number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        ) from None
    # NaN fails every comparison, so test for the accepted range
    # instead of the rejected one.
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value}"
        )
    return value


def _budget_sweep_spec(text: str) -> tuple[float, ...]:
    """Argparse ``type=`` for ``--budget-sweep LOW:HIGH:STEPS``.

    Builds on the positive-number validators so a bad spec is a
    one-line usage error, then delegates range/duplicate checking to
    :func:`repro.core.sweep.parse_budget_sweep`.  Returns the parsed
    budget shares.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected LOW:HIGH:STEPS (e.g. 0.1:1.0:10), got {text!r}"
        )
    low, high = _positive_float(parts[0]), _positive_float(parts[1])
    steps = _positive_int(parts[2])
    try:
        return parse_budget_sweep(f"{low}:{high}:{steps}")
    except ExperimentError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _build_workload(arguments: argparse.Namespace) -> Workload:
    if arguments.workload == "tpcc":
        return tpcc_workload(warehouses=arguments.warehouses)
    if arguments.workload == "erp":
        return generate_enterprise_workload(
            EnterpriseConfig(scale=arguments.scale, seed=arguments.seed)
        )
    return generate_workload(
        GeneratorConfig(
            tables=arguments.tables,
            attributes_per_table=arguments.attributes,
            queries_per_table=arguments.queries,
            seed=arguments.seed,
        )
    )


def _run_algorithm(
    arguments: argparse.Namespace,
    workload: Workload,
    optimizer: WhatIfOptimizer,
    budget: float,
    telemetry: Telemetry,
    deadline: Deadline,
) -> SelectionResult:
    name = arguments.algorithm
    if name == "extend":
        return ExtendAlgorithm(optimizer, telemetry=telemetry).select(
            workload, budget, deadline=deadline
        )

    if arguments.candidates:
        statistics = WorkloadStatistics(workload)
        candidates = candidates_h1m(statistics, arguments.candidates)
    else:
        candidates = syntactically_relevant_candidates(workload)
    if name == "cophy":
        return CoPhyAlgorithm(
            optimizer,
            time_limit=arguments.time_limit,
            telemetry=telemetry,
        ).select(workload, budget, candidates, deadline=deadline)
    heuristic_types = {
        "h1": FrequencyHeuristic,
        "h2": SelectivityHeuristic,
        "h3": SelectivityFrequencyHeuristic,
        "h5": BenefitPerSizeHeuristic,
    }
    if name in heuristic_types:
        return heuristic_types[name](
            optimizer, telemetry=telemetry
        ).select(workload, budget, candidates, deadline=deadline)
    if name in ("h4", "h4s"):
        return PerformanceHeuristic(
            optimizer, use_skyline=name == "h4s", telemetry=telemetry
        ).select(workload, budget, candidates, deadline=deadline)
    raise ExperimentError(f"unknown algorithm {name!r}")


def _build_cost_stack(
    arguments: argparse.Namespace, workload: Workload
) -> tuple[WhatIfOptimizer, ResilientCostSource,
           FaultInjectingCostSource | None, VectorizedCostSource]:
    """Assemble compiled kernel → fault injector → resilient wrapper."""
    kernel = VectorizedCostSource(workload.schema)
    injector: FaultInjectingCostSource | None = None
    primary = kernel
    fallbacks: tuple = ()
    if arguments.fault_rate > 0:
        injector = FaultInjectingCostSource(
            kernel,
            failure_rate=arguments.fault_rate,
            seed=arguments.fault_seed,
        )
        primary = injector
        fallbacks = (kernel,)
    resilient = ResilientCostSource(
        primary,
        policy=ResiliencePolicy(
            max_retries=arguments.max_retries,
            # CLI runs are interactive; do not sleep between retries.
            backoff_base_s=0.0,
        ),
        fallbacks=fallbacks,
    )
    return WhatIfOptimizer(resilient), resilient, injector, kernel


def _telemetry_from_arguments(arguments: argparse.Namespace):
    """The advise telemetry session per ``--trace``/``--metrics``.

    Returns ``None`` (after printing the usage error) when the trace
    path is unwritable — failing fast beats crashing at the first lazy
    emit mid-selection.
    """
    if not (arguments.trace or arguments.metrics):
        return NULL_TELEMETRY
    sinks: tuple[JsonLinesSink, ...] = ()
    if arguments.trace:
        try:
            open(arguments.trace, "w", encoding="utf-8").close()
        except OSError as error:
            print(
                f"error: cannot write trace file: {error}",
                file=sys.stderr,
            )
            return None
        sinks = (JsonLinesSink(arguments.trace),)
    return Telemetry(sinks=sinks)


def _finish_telemetry(
    arguments: argparse.Namespace,
    telemetry: Telemetry,
    optimizer: WhatIfOptimizer,
    resilient: ResilientCostSource,
    injector: FaultInjectingCostSource | None,
    kernel: VectorizedCostSource,
) -> None:
    """The advise telemetry tail: publish the cost stack's statistics,
    print ``--metrics``, and close the session (writing ``--trace``)."""
    if not telemetry.enabled:
        return
    metrics = telemetry.metrics
    metrics.publish("whatif", optimizer.statistics)
    metrics.publish("resilience", resilient.statistics)
    metrics.publish("kernel", kernel.statistics)
    if injector is not None:
        metrics.publish("faults", injector.statistics)
    if arguments.metrics:
        print("\nTelemetry metrics:")
        print(render_metrics_table(metrics.snapshot()))
    telemetry.close()
    if arguments.trace:
        print(f"\nTrace written to {arguments.trace}")


def _advise_sweep(
    arguments: argparse.Namespace,
    workload: Workload,
    optimizer: WhatIfOptimizer,
    resilient: ResilientCostSource,
    injector: FaultInjectingCostSource | None,
    kernel,
    deadline: Deadline,
) -> int:
    """The ``advise --budget-sweep`` path: one Extend run per share."""
    if arguments.algorithm != "extend":
        raise ExperimentError(
            "--budget-sweep answers the frontier with one Extend run "
            f"per share; it does not combine with --algorithm "
            f"{arguments.algorithm!r}"
        )
    shares = arguments.budget_sweep
    telemetry = _telemetry_from_arguments(arguments)
    if telemetry is None:
        return 2
    print(
        f"Workload: {workload.query_count} queries over "
        f"{workload.schema.attribute_count} attributes; "
        f"budget sweep w={shares[0]:g}..{shares[-1]:g} "
        f"({len(shares)} points)"
    )
    sweep = sweep_select(
        workload,
        optimizer,
        shares,
        telemetry=telemetry,
        deadline=deadline,
    )
    baseline = optimizer.workload_cost(workload, ())
    print(
        f"\n{'w':>6}  {'budget bytes':>14}  {'total cost':>12}  "
        f"{'memory':>12}  {'steps':>5}  {'calls':>6}  {'time':>7}"
    )
    for point in sweep.points:
        result = point.result
        print(
            f"{point.budget_share:>6g}  {point.budget_bytes:>14,.0f}  "
            f"{result.total_cost:>12.6g}  {result.memory:>12,.0f}  "
            f"{len(result.steps):>5}  {point.whatif_calls:>6}  "
            f"{result.runtime_seconds:>6.2f}s"
            + ("  (degraded)" if result.degraded else "")
        )
    statistics = sweep.statistics
    print(
        f"\nBackend what-if calls: {statistics.backend_calls:,} for "
        f"{statistics.completed_points} points"
    )
    print(f"Cost without indexes: {baseline:.6g}")
    if sweep.partial:
        skipped = ", ".join(f"{w:g}" for w in sweep.skipped_shares)
        print(
            "note: partial frontier — unanswered budget shares: "
            f"{skipped}"
        )
    for note in sweep.notes:
        print(f"note: {note}")
    if injector is not None:
        resilience_stats = resilient.statistics
        print(
            f"Resilience: {injector.statistics.injected_failures:,} "
            f"injected faults, {resilience_stats.retries:,} retries, "
            f"{resilience_stats.fallback_calls:,} fallback calls, "
            f"breaker {resilience_stats.breaker_state.name.lower()}"
        )
    _finish_telemetry(
        arguments, telemetry, optimizer, resilient, injector, kernel
    )
    return 0


def _advise(arguments: argparse.Namespace) -> int:
    workload = _build_workload(arguments)
    optimizer, resilient, injector, kernel = _build_cost_stack(
        arguments, workload
    )
    if arguments.merge_duplicates or arguments.compress_share is not None:
        workload, compression = pricing_prepass(
            workload,
            optimizer,
            merge_duplicates=arguments.merge_duplicates,
            share=arguments.compress_share,
        )
        print(
            f"Compression pre-pass: {compression.templates_before} -> "
            f"{compression.templates_after} templates "
            f"({compression.merged} merged, "
            f"{compression.dropped} dropped)"
        )
    deadline = Deadline(arguments.deadline)
    if arguments.budget_sweep is not None:
        return _advise_sweep(
            arguments, workload, optimizer, resilient, injector,
            kernel, deadline,
        )
    budget = relative_budget(workload.schema, arguments.budget)
    print(
        f"Workload: {workload.query_count} queries over "
        f"{workload.schema.attribute_count} attributes; "
        f"budget w={arguments.budget} ({budget:,.0f} bytes)"
    )
    telemetry = _telemetry_from_arguments(arguments)
    if telemetry is None:
        return 2
    result = _run_algorithm(
        arguments, workload, optimizer, budget, telemetry, deadline
    )
    baseline = optimizer.workload_cost(workload, ())
    statistics = optimizer.statistics
    print(result.summary())
    if result.degraded:
        print(
            "note: run was degraded (deadline or backend trouble); "
            "the configuration is feasible best-so-far"
        )
    print(
        f"Cost without indexes: {baseline:.6g} "
        f"({baseline / max(result.total_cost, 1e-12):.1f}x improvement)"
    )
    print(
        f"What-if cache: {statistics.cache_hits:,} hits / "
        f"{statistics.total_requests:,} requests "
        f"({statistics.hit_rate:.1%} hit rate)"
    )
    if injector is not None:
        resilience_stats = resilient.statistics
        print(
            f"Resilience: {injector.statistics.injected_failures:,} "
            f"injected faults, {resilience_stats.retries:,} retries, "
            f"{resilience_stats.fallback_calls:,} fallback calls, "
            f"breaker {resilience_stats.breaker_state.name.lower()}"
        )
    print("\nRecommended indexes:")
    for index in sorted(
        result.configuration,
        key=lambda index: (index.table_name, index.attributes),
    ):
        print(f"  {index.label(workload.schema)}")
    if result.steps and arguments.steps:
        print("\nConstruction trace:")
        print(format_steps(result.steps, workload.schema))
    _finish_telemetry(
        arguments, telemetry, optimizer, resilient, injector, kernel
    )
    return 0


def _serve(arguments: argparse.Namespace) -> int:
    workload = _build_workload(arguments)
    schema = workload.schema
    cost_source = None
    if arguments.fault_rate > 0:
        cost_source = FaultInjectingCostSource(
            VectorizedCostSource(schema),
            failure_rate=arguments.fault_rate,
            seed=arguments.fault_seed,
        )
    service = AdvisorService(
        schema,
        max_concurrency=arguments.max_concurrency,
        queue_depth=arguments.queue_depth,
        default_deadline_s=arguments.default_deadline,
        cost_source=cost_source,
        resilience=ResiliencePolicy(
            max_retries=arguments.max_retries,
            backoff_base_s=0.0,
        ),
        whatif_cache_entries=arguments.whatif_cache_entries,
        snapshot_dir=arguments.snapshot_dir,
        snapshot_interval_s=arguments.snapshot_interval,
        drain_timeout_s=arguments.drain_timeout,
    )
    # stdout is the protocol channel; humans read stderr.
    report = service.restore_report
    if report is not None and report.restored:
        print(
            f"repro serve: restored snapshot #{report.sequence} "
            f"({report.workloads} workload(s), "
            f"{report.whatif_entries} what-if entries)",
            file=sys.stderr,
        )
    elif report is not None and report.corrupt:
        print(
            f"repro serve: snapshot discarded ({report.reason}); "
            "starting cold",
            file=sys.stderr,
        )
    if arguments.workload in service.workloads():
        # The snapshot already carries this registration (and its
        # what-if entries); re-registering would raise and updating it
        # would count as a new, unpriced version.
        print(
            f"repro serve: workload {arguments.workload!r} already "
            "restored from snapshot; keeping the restored registration",
            file=sys.stderr,
        )
    else:
        service.register_workload(arguments.workload, workload)
    print(
        f"repro serve: workload {arguments.workload!r} registered "
        f"({workload.query_count} queries), "
        f"concurrency={arguments.max_concurrency}, "
        f"queue_depth={arguments.queue_depth}, "
        f"default_deadline={arguments.default_deadline}",
        file=sys.stderr,
    )

    def _handle_sigterm(signum, frame):
        print(
            "repro serve: SIGTERM received — draining "
            "(in-flight requests finish or degrade, final snapshot)",
            file=sys.stderr,
        )
        service.close(wait=True)
        statistics = service.statistics
        print(
            f"repro serve: drained ({statistics.completed} completed, "
            f"{statistics.degraded} degraded, "
            f"{statistics.drain_forced} forced); exiting",
            file=sys.stderr,
        )
        raise SystemExit(0)

    try:
        signal.signal(signal.SIGTERM, _handle_sigterm)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    handled = serve_loop(service, sys.stdin, sys.stdout)
    statistics = service.statistics
    print(
        f"repro serve: exiting after {handled} messages "
        f"({statistics.completed} completed, "
        f"{statistics.degraded} degraded, "
        f"{statistics.rejected} rejected)",
        file=sys.stderr,
    )
    return 0


def _experiment(arguments: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(
        f"repro.experiments.{arguments.id}"
    )
    module.main(arguments.forwarded)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Flags shared by `advise` and `serve` live on parent parsers so
    # the two subcommands cannot drift apart.
    workload_flags = argparse.ArgumentParser(add_help=False)
    workload_flags.add_argument(
        "--workload",
        choices=("appendix-c", "tpcc", "erp"),
        default="appendix-c",
    )
    workload_flags.add_argument("--tables", type=int, default=3)
    workload_flags.add_argument("--attributes", type=int, default=10)
    workload_flags.add_argument("--queries", type=int, default=15)
    workload_flags.add_argument("--warehouses", type=int, default=10)
    workload_flags.add_argument(
        "--scale", type=float, default=0.1,
        help="ERP workload scale (default 0.1)",
    )
    workload_flags.add_argument("--seed", type=int, default=1909)

    cost_flags = argparse.ArgumentParser(add_help=False)
    cost_flags.add_argument(
        "--max-retries", type=int, default=3,
        help="retries per failing cost-backend call before falling "
        "back (default 3)",
    )
    cost_flags.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="P",
        help="inject seeded transient cost-backend failures with "
        "probability P (resilience test harness; default 0)",
    )
    cost_flags.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault-injection RNG (default 0)",
    )

    advise = subparsers.add_parser(
        "advise", help="recommend an index configuration",
        parents=[workload_flags, cost_flags],
    )
    advise.add_argument(
        "--algorithm", choices=_ALGORITHMS, default="extend"
    )
    budgets = advise.add_mutually_exclusive_group()
    budgets.add_argument("--budget", type=float, default=0.3,
                         help="budget share w of Eq. 10 (default 0.3)")
    budgets.add_argument(
        "--budget-sweep", type=_budget_sweep_spec, default=None,
        metavar="LOW:HIGH:STEPS",
        help="answer a whole cost/memory frontier instead of one "
             "budget: STEPS evenly spaced shares in [LOW, HIGH] "
             "(e.g. 0.1:1.0:10), one Extend run each over one what-if "
             "cache; not allowed with --budget",
    )
    advise.add_argument(
        "--candidates", type=int, default=0,
        help="H1-M candidate count for two-step algorithms "
        "(0 = exhaustive)",
    )
    advise.add_argument("--time-limit", type=float, default=120.0)
    advise.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the selection; on expiry the "
        "best-so-far configuration is returned tagged 'degraded'",
    )
    advise.add_argument(
        "--merge-duplicates", action="store_true",
        help="compression pre-pass: merge content-duplicate templates "
        "(frequencies summed; lossless for the total workload cost)",
    )
    advise.add_argument(
        "--compress-share", type=float, default=None, metavar="P",
        help="compression pre-pass: keep only the templates covering "
        "share P of estimated cost before selection (lossy; "
        "default: off)",
    )
    advise.add_argument(
        "--steps", action="store_true",
        help="print the construction-step table (Extend only)",
    )
    advise.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a JSON-lines telemetry trace (spans, step events, "
        "metrics) to FILE",
    )
    advise.add_argument(
        "--metrics", action="store_true",
        help="print the telemetry metrics table after the run",
    )
    advise.set_defaults(handler=_advise)

    experiment = subparsers.add_parser(
        "experiment", help="run a paper-artifact harness"
    )
    experiment.add_argument("id", choices=_EXPERIMENTS)
    experiment.add_argument(
        "forwarded", nargs="*",
        help="arguments forwarded to the experiment CLI",
    )
    experiment.set_defaults(handler=_experiment)

    serve = subparsers.add_parser(
        "serve",
        help="run the advisor as a JSON-lines daemon on stdin/stdout",
        parents=[workload_flags, cost_flags],
    )
    serve.add_argument(
        "--max-concurrency", type=_positive_int, default=2,
        metavar="N",
        help="requests executing concurrently (default 2)",
    )
    serve.add_argument(
        "--queue-depth", type=_positive_int, default=8, metavar="N",
        help="requests allowed to wait beyond the executing ones "
        "(default 8); submits past max-concurrency + queue-depth are "
        "rejected fail-fast",
    )
    serve.add_argument(
        "--whatif-cache-entries", type=_positive_int, default=None,
        metavar="N",
        help="LRU bound on the resident what-if cost cache "
        "(default: unbounded); evictions surface as the "
        "whatif.evictions gauge",
    )
    serve.add_argument(
        "--default-deadline", type=float, default=None,
        metavar="SECONDS",
        help="deadline for requests that carry none, measured from "
        "submission (default: unlimited); expired requests degrade to "
        "tagged best-so-far results",
    )
    serve.add_argument(
        "--snapshot-dir", metavar="DIR", default=None,
        help="directory for durable snapshots of registrations and "
        "their what-if cache entries; restored at startup when present "
        "(default: durability off)",
    )
    serve.add_argument(
        "--snapshot-interval", type=float, default=None,
        metavar="SECONDS",
        help="period of the background snapshot writer (default: "
        "snapshot only on demand and on shutdown)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="how long a graceful drain waits for in-flight requests "
        "before degrading and then force-resolving them (default 10)",
    )
    serve.set_defaults(handler=_serve)

    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        # Library errors are user/input errors from the CLI's point of
        # view: one readable line, exit 2.  Programming errors
        # (TypeError etc.) still propagate with a full traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
