"""Benchmark: incremental candidate evaluation vs the naive rescan.

Replays Extend on a scaled Fig. 2 workload (10 tables x 50 attributes,
20 query templates per table, seed 1909) in the budget-constrained
regime and counts raw ``CostSource.query_cost`` invocations for the
naive exhaustive scan versus the incremental benefit-table engine.
Both runs must produce bit-identical step traces; the incremental run
must need at most half the backend calls (observed: ~4.7x fewer at
``w = 0.1``).  The same rows on the scaled enterprise workload of the
golden fixtures (scale 0.02, seed 500) with a seeded fifth of its
templates made UPDATEs and INSERTs pin the pricing traffic of the
index-maintenance bookkeeping too.

Also usable standalone for the CI regression gate::

    PYTHONPATH=src python benchmarks/bench_evaluation.py                # print table
    PYTHONPATH=src python benchmarks/bench_evaluation.py --check       # compare vs baseline
    PYTHONPATH=src python benchmarks/bench_evaluation.py --write-baseline

``--check`` exits non-zero when the incremental engine's call count of
any row exceeds the committed baseline (``baselines/evaluation_fig2.json``)
by more than 10% — catching regressions that stay correct but silently
give back the savings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.evaluation import EvaluationConfig
from repro.core.extend import ExtendAlgorithm
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.indexes.memory import relative_budget
from repro.telemetry import Telemetry
from repro.workload.enterprise import (
    EnterpriseConfig,
    generate_enterprise_workload,
)
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.query import QueryKind, Workload

BASELINE_PATH = (
    Path(__file__).parent / "baselines" / "evaluation_fig2.json"
)
TOLERANCE = 0.10

# Fig. 2 shape scaled to 20 query templates per table so the sweep
# replays in ~1 s; the savings regime (budget binds, construction does
# not run to exhaustion) is at the low end of the budget grid.
FIG2_SCALED = GeneratorConfig(
    attributes_per_table=50, queries_per_table=20, seed=1909
)
BUDGET_SHARES = (0.05, 0.1)
# The write workload of tests/golden/fig4_writes_extend.json.
ERP_SCALED = EnterpriseConfig(scale=0.02, seed=500)
WRITE_SEED = 2271
WRITE_SHARE = 0.2


def write_workload() -> Workload:
    """``ERP_SCALED`` with a ``WRITE_SEED``-drawn ``WRITE_SHARE`` of its
    templates made writes, half of them UPDATEs and half INSERTs."""
    workload = generate_enterprise_workload(ERP_SCALED)
    rng = np.random.default_rng(WRITE_SEED)
    writes = rng.uniform(size=len(workload)) < WRITE_SHARE
    updates = rng.uniform(size=len(workload)) < 0.5
    return Workload(workload.schema, [
        dataclasses.replace(
            query,
            kind=(QueryKind.UPDATE if update else QueryKind.INSERT)
            if write else QueryKind.SELECT,
        )
        for query, write, update in zip(workload.queries, writes, updates)
    ])


class _CountingSource:
    """Counts raw backend invocations below the caching facade."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.calls = 0

    def query_cost(self, query, index) -> float:
        self.calls += 1
        return self._inner.query_cost(query, index)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _run(workload, share: float, evaluation: EvaluationConfig):
    source = _CountingSource(
        AnalyticalCostSource(CostModel(workload.schema))
    )
    telemetry = Telemetry()
    result = ExtendAlgorithm(
        WhatIfOptimizer(source),
        evaluation=evaluation,
        telemetry=telemetry,
    ).select(workload, relative_budget(workload.schema, share))
    return result, source.calls, telemetry.snapshot().metrics


def measure(share: float, workload=None) -> dict:
    """Naive vs incremental call counts at one budget share."""
    if workload is None:
        workload = generate_workload(FIG2_SCALED)
    naive, naive_calls, _ = _run(
        workload, share, EvaluationConfig(naive=True)
    )
    incremental, incremental_calls, metrics = _run(
        workload, share, EvaluationConfig()
    )
    if incremental.step_trace() != naive.step_trace():
        raise AssertionError(
            f"incremental engine diverged from naive scan at w={share}"
        )
    return {
        "steps": len(naive.steps),
        "naive_calls": naive_calls,
        "incremental_calls": incremental_calls,
        "speedup": naive_calls / max(1, incremental_calls),
        "reuse_rate": round(metrics["evaluation.reuse_rate"], 4),
        "pruned_candidates": metrics["evaluation.pruned_candidates"],
    }


def measure_all() -> dict:
    workload = generate_workload(FIG2_SCALED)
    writes = write_workload()
    return {
        **{
            f"w={share}": measure(share, workload)
            for share in BUDGET_SHARES
        },
        **{
            f"writes w={share}": measure(share, writes)
            for share in BUDGET_SHARES
        },
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def test_incremental_at_least_halves_backend_calls(benchmark):
    """The headline claim: >= 2x fewer CostSource calls, same answer."""
    results = benchmark.pedantic(
        measure, args=(0.1,), rounds=1, iterations=1
    )
    assert results["naive_calls"] >= 2 * results["incremental_calls"]
    # Cached benefits were actually reused across rounds, and bound
    # pruning left candidates unpriced — the two mechanisms the
    # savings come from.
    assert results["reuse_rate"] > 0.5
    assert results["pruned_candidates"] > 0


def test_incremental_calls_within_committed_baseline(benchmark):
    """Regression gate: stay within 10% of the committed call counts."""
    results = benchmark.pedantic(
        measure_all, rounds=1, iterations=1
    )
    failures = compare_to_baseline(results)
    assert not failures, "\n".join(failures)


# ----------------------------------------------------------------------
# standalone CLI (CI regression gate)
# ----------------------------------------------------------------------


def compare_to_baseline(results: dict) -> list[str]:
    """Non-empty list of violation messages when calls regressed."""
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
        limit = reference["incremental_calls"] * (1 + TOLERANCE)
        if row["incremental_calls"] > limit:
            failures.append(
                f"{label}: incremental_calls {row['incremental_calls']} "
                f"exceeds baseline {reference['incremental_calls']} "
                f"by more than {TOLERANCE:.0%}"
            )
    return failures


def _print_table(results: dict) -> None:
    header = (
        f"{'budget':>14} {'steps':>6} {'naive':>8} {'incremental':>12} "
        f"{'speedup':>8} {'reuse':>6}"
    )
    print(header)
    for label, row in results.items():
        print(
            f"{label:>14} {row['steps']:>6} {row['naive_calls']:>8} "
            f"{row['incremental_calls']:>12} {row['speedup']:>8.2f} "
            f"{row['reuse_rate']:>6.2f}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--check",
        action="store_true",
        help="fail when call counts regress vs the committed baseline",
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
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "workload": (
                        "fig2 scaled: 10x50 attributes, 20 queries/table,"
                        " seed 1909; writes: enterprise scale 0.02, seed"
                        f" 500, {WRITE_SHARE:.0%} UPDATE/INSERT (seed"
                        f" {WRITE_SEED})"
                    ),
                    "tolerance": TOLERANCE,
                    "budgets": results,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
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
