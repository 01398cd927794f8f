"""Benchmark: crash recovery from a durable snapshot at Fig. 2 scale.

Serves the scaled Fig. 2 workload (10 tables x 50 attributes, 20 query
templates per table, seed 1909) through an :class:`AdvisorService`
configured with a snapshot directory, takes a snapshot after the first
(cold) recommendation, *simulates a crash* — the service object is
abandoned without drain or final snapshot, exactly what ``kill -9``
leaves behind — and boots a fresh service from the same directory.

The acceptance contract this gates:

* the restore succeeds (restored workload, restored what-if entries);
* the post-restore repeat request runs entirely on restored residency —
  it is ``warm`` and makes **zero** backend what-if calls (pinned by
  the committed baseline);
* it selects the bit-identical configuration a one-shot
  ``IndexAdvisor.recommend`` selects;
* it completes at least 2x faster than the cold run — the same service
  request on the fresh service, before the snapshot (absolute floor,
  not a machine-dependent timing baseline).

Also usable standalone for the CI regression gate::

    PYTHONPATH=src python benchmarks/bench_durability.py                # print table
    PYTHONPATH=src python benchmarks/bench_durability.py --check       # compare vs baseline
    PYTHONPATH=src python benchmarks/bench_durability.py --write-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.advisor import IndexAdvisor
from repro.service import AdvisorService, RecommendRequest
from repro.workload.generator import GeneratorConfig, generate_workload

BASELINE_PATH = (
    Path(__file__).parent / "baselines" / "durability_fig2.json"
)
TOLERANCE = 0.10
SPEEDUP_FLOOR = 2.0

FIG2_SCALED = GeneratorConfig(
    attributes_per_table=50, queries_per_table=20, seed=1909
)
BUDGET_SHARE = 0.1


def measure(workload=None) -> dict:
    """Populate -> snapshot -> crash -> restored request.

    The cold comparator is the populating request: the same service
    request on a fresh service, with no resident state of any kind —
    the definition :mod:`bench_service` uses.  A one-shot
    ``IndexAdvisor`` run is the reference selection both must match.
    """
    if workload is None:
        workload = generate_workload(FIG2_SCALED)
    request = RecommendRequest(
        workload="fig2", budget_share=BUDGET_SHARE
    )

    cold_shot = IndexAdvisor(workload.schema).recommend(
        workload, budget_share=BUDGET_SHARE, algorithm="extend"
    )
    signature = cold_shot.result.configuration_signature()

    with tempfile.TemporaryDirectory() as snapshot_dir:
        crashed = AdvisorService(
            workload.schema,
            max_concurrency=1,
            queue_depth=1,
            snapshot_dir=snapshot_dir,
        )
        crashed.register_workload("fig2", workload)
        started = time.perf_counter()
        populate = crashed.recommend(request)
        populate_seconds = time.perf_counter() - started
        snapshot_bytes = crashed.snapshot_now().stat().st_size
        # Simulated crash: no drain, no close(), no final snapshot —
        # the worker threads are daemons, so the object is simply
        # abandoned, which is what SIGKILL leaves on disk.
        del crashed

        with AdvisorService(
            workload.schema,
            max_concurrency=1,
            queue_depth=1,
            snapshot_dir=snapshot_dir,
        ) as restarted:
            report = restarted.restore_report
            if report is None or not report.restored:
                raise AssertionError(
                    "restart did not restore the snapshot: "
                    f"{None if report is None else report.reason}"
                )
            started = time.perf_counter()
            restored = restarted.recommend(request)
            restored_seconds = time.perf_counter() - started

    for response in (populate, restored):
        if response.result.configuration_signature() != signature:
            raise AssertionError(
                "service diverged from the one-shot advisor selection"
            )
    return {
        "steps": len(cold_shot.result.steps),
        "cold_seconds": round(populate_seconds, 4),
        "restored_seconds": round(restored_seconds, 4),
        "speedup": round(
            populate_seconds / max(restored_seconds, 1e-9), 2
        ),
        "snapshot_bytes": snapshot_bytes,
        "restored_workloads": report.workloads,
        "restored_whatif_entries": report.whatif_entries,
        "restored_whatif_calls": int(restored.gauges["whatif.calls"]),
        "restored_warm": restored.warm,
    }


def measure_all() -> dict:
    return {f"w={BUDGET_SHARE}": measure()}


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def test_restored_request_at_least_2x_faster(benchmark):
    """The acceptance floor: restored residency beats the same request
    on a fresh service 2x."""
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert results["speedup"] >= SPEEDUP_FLOOR
    assert results["restored_warm"]
    assert results["restored_whatif_calls"] == 0


def test_restored_path_matches_baseline(benchmark):
    """Regression gate: restored-path counters stay pinned."""
    results = benchmark.pedantic(measure_all, rounds=1, iterations=1)
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
        # Deterministic count: the restored path must keep running
        # without the backend (tolerance only forgives baselines > 0).
        limit = reference["restored_whatif_calls"] * (1 + TOLERANCE)
        if row["restored_whatif_calls"] > limit:
            failures.append(
                f"{label}: restored_whatif_calls "
                f"{row['restored_whatif_calls']} exceeds baseline "
                f"{reference['restored_whatif_calls']} by more than "
                f"{TOLERANCE:.0%}"
            )
        if not row["restored_warm"]:
            failures.append(
                f"{label}: the restored request did not run warm"
            )
        if row["speedup"] < SPEEDUP_FLOOR:
            failures.append(
                f"{label}: post-restore speedup {row['speedup']}x "
                f"below the {SPEEDUP_FLOOR}x acceptance floor"
            )
    return failures


def _print_table(results: dict) -> None:
    header = (
        f"{'budget':>8} {'steps':>6} {'cold':>8} {'restored':>9} "
        f"{'speedup':>8} {'calls':>6} {'entries':>8}"
    )
    print(header)
    for label, row in results.items():
        print(
            f"{label:>8} {row['steps']:>6} {row['cold_seconds']:>8.3f} "
            f"{row['restored_seconds']:>9.3f} "
            f"{row['speedup']:>8.2f} {row['restored_whatif_calls']:>6} "
            f"{row['restored_whatif_entries']:>8}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--check",
        action="store_true",
        help="fail when crash recovery regresses vs the committed "
        "baseline or the 2x speedup floor",
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
                    "restored_whatif_calls": row[
                        "restored_whatif_calls"
                    ],
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
