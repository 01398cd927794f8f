"""Benchmark: warm service requests vs the same request on a fresh service.

Serves the scaled Fig. 2 workload (10 tables x 50 attributes, 20 query
templates per table, seed 1909) through an :class:`AdvisorService` and
compares repeated (warm) requests against the first, cold one: the same
service request on a fresh service, so both sides do the same work (a
selection, no report) and differ only in residency.  Warm requests run
against resident state — the shared what-if cache and the compiled
workload packs — and must be at least 3x faster while selecting the
configuration a one-shot ``IndexAdvisor.recommend`` selects, bit for
bit.  The warm path's backend what-if calls are fully deterministic
(every lookup is a hit in the shared cache), so the committed
baseline pins them exactly; wall-clock speedup
is gated against the absolute 3x floor rather than a machine-dependent
timing baseline.

Also usable standalone for the CI regression gate::

    PYTHONPATH=src python benchmarks/bench_service.py                # print table
    PYTHONPATH=src python benchmarks/bench_service.py --check       # compare vs baseline
    PYTHONPATH=src python benchmarks/bench_service.py --write-baseline
"""

from __future__ import annotations

import argparse
import json
import statistics as stats
import sys
from pathlib import Path

from repro.advisor import IndexAdvisor
from repro.service import AdvisorService, RecommendRequest
from repro.workload.generator import GeneratorConfig, generate_workload

BASELINE_PATH = (
    Path(__file__).parent / "baselines" / "service_fig2.json"
)
TOLERANCE = 0.10
SPEEDUP_FLOOR = 3.0

FIG2_SCALED = GeneratorConfig(
    attributes_per_table=50, queries_per_table=20, seed=1909
)
BUDGET_SHARE = 0.1
WARM_ROUNDS = 5


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    position = min(
        len(ordered) - 1, max(0, round(share * (len(ordered) - 1)))
    )
    return ordered[position]


def measure(workload=None) -> dict:
    """The first (cold) request on a fresh service vs warm repeats."""
    if workload is None:
        workload = generate_workload(FIG2_SCALED)

    cold_shot = IndexAdvisor(workload.schema).recommend(
        workload, budget_share=BUDGET_SHARE, algorithm="extend"
    )
    signature = cold_shot.result.configuration_signature()

    with AdvisorService(
        workload.schema, max_concurrency=1, queue_depth=1
    ) as service:
        service.register_workload("fig2", workload)
        request = RecommendRequest(
            workload="fig2", budget_share=BUDGET_SHARE
        )
        first = service.recommend(request)  # populates residency
        warm_responses = [
            service.recommend(request) for _ in range(WARM_ROUNDS)
        ]

    for response in (first, *warm_responses):
        if response.result.configuration_signature() != signature:
            raise AssertionError(
                "service diverged from the one-shot advisor"
            )
    warm_seconds = [r.wall_seconds for r in warm_responses]
    warm_calls = max(r.gauges["whatif.calls"] for r in warm_responses)
    p50 = _percentile(warm_seconds, 0.50)
    return {
        "steps": len(cold_shot.result.steps),
        "cold_seconds": round(first.wall_seconds, 4),
        "warm_p50_seconds": round(p50, 4),
        "warm_p99_seconds": round(_percentile(warm_seconds, 0.99), 4),
        "warm_mean_seconds": round(stats.mean(warm_seconds), 4),
        "speedup": round(first.wall_seconds / max(p50, 1e-9), 2),
        "warm_whatif_calls": int(warm_calls),
    }


def measure_all() -> dict:
    return {f"w={BUDGET_SHARE}": measure()}


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def test_warm_request_at_least_3x_faster(benchmark):
    """The headline claim: resident state makes repeats >= 3x faster
    than the same request on a fresh service."""
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert results["speedup"] >= SPEEDUP_FLOOR


def test_warm_path_needs_no_backend_calls(benchmark):
    """Regression gate: the warm path's what-if calls stay pinned."""
    results = benchmark.pedantic(
        measure_all, rounds=1, iterations=1
    )
    failures = compare_to_baseline(results)
    assert not failures, "\n".join(failures)


# ----------------------------------------------------------------------
# standalone CLI (CI regression gate)
# ----------------------------------------------------------------------


def compare_to_baseline(results: dict) -> list[str]:
    """Non-empty list of violation messages on regression."""
    if not BASELINE_PATH.exists():
        return [
            f"missing baseline {BASELINE_PATH}; run with --write-baseline"
        ]
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    failures = []
    for label, row in results.items():
        reference = baseline["budgets"].get(label)
        if reference is None:
            failures.append(f"{label}: not in committed baseline")
            continue
        # Deterministic count: the warm path must not start calling the
        # backend again (tolerance only forgives baseline counts > 0).
        limit = reference["warm_whatif_calls"] * (1 + TOLERANCE)
        if row["warm_whatif_calls"] > limit:
            failures.append(
                f"{label}: warm_whatif_calls "
                f"{row['warm_whatif_calls']} exceeds baseline "
                f"{reference['warm_whatif_calls']} by more than "
                f"{TOLERANCE:.0%}"
            )
        if row["speedup"] < SPEEDUP_FLOOR:
            failures.append(
                f"{label}: warm speedup {row['speedup']}x below the "
                f"{SPEEDUP_FLOOR}x acceptance floor"
            )
    return failures


def _print_table(results: dict) -> None:
    header = (
        f"{'budget':>8} {'steps':>6} {'cold':>8} {'warm p50':>9} "
        f"{'warm p99':>9} {'speedup':>8} {'calls':>6}"
    )
    print(header)
    for label, row in results.items():
        print(
            f"{label:>8} {row['steps']:>6} {row['cold_seconds']:>8.3f} "
            f"{row['warm_p50_seconds']:>9.3f} "
            f"{row['warm_p99_seconds']:>9.3f} "
            f"{row['speedup']:>8.2f} {row['warm_whatif_calls']:>6}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--check",
        action="store_true",
        help="fail when the warm path regresses vs the committed "
        "baseline or the 3x speedup floor",
    )
    group.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the committed baseline from the current run",
    )
    arguments = parser.parse_args(argv)

    results = measure_all()
    _print_table(results)

    if arguments.write_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        baseline = {
            "workload": (
                "fig2 scaled: 10x50 attributes, 20 queries/table, "
                "seed 1909"
            ),
            "tolerance": TOLERANCE,
            "speedup_floor": SPEEDUP_FLOOR,
            "budgets": {
                label: {
                    "warm_whatif_calls": row["warm_whatif_calls"]
                }
                for label, row in results.items()
            },
        }
        BASELINE_PATH.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"baseline written to {BASELINE_PATH}")
        return 0
    if arguments.check:
        failures = compare_to_baseline(results)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
