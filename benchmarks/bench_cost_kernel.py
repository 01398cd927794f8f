"""Benchmark: vectorized compiled cost kernel vs the scalar backend.

Prices the full Fig. 4-scale cost table (enterprise workload at
``scale=0.3``: ~680 queries x ~2500 width-<=3 candidates, ~19k
applicable pairs) through ``WhatIfOptimizer.cost_table`` twice — once
against the scalar :class:`~repro.cost.model.CostModel`, once against
the compiled :class:`~repro.cost.kernel.VectorizedCostSource` — and
asserts the kernel's contract:

* wall-clock speedup >= 5x (the median of per-round ratios, GC
  parked during timing),
* every shared entry within 1e-9 relative tolerance,
* identical key sets and identical ``WhatIfStatistics`` accounting
  (``calls`` and ``cache_hits``) on both backends.

Timing runs with the collector disabled (collecting between
sweeps): the scalar sweep allocates millions of tuples and
generational GC pauses otherwise add 30-50% run-to-run noise.  The two
backends are timed in alternating rounds (scalar first in even rounds)
and each round yields one scalar/vectorized ratio, so a drift in the
host's speed moves both halves of a ratio instead of only one.

Also usable standalone for the CI regression gate::

    PYTHONPATH=src python benchmarks/bench_cost_kernel.py                # print table
    PYTHONPATH=src python benchmarks/bench_cost_kernel.py --check       # compare vs baseline
    PYTHONPATH=src python benchmarks/bench_cost_kernel.py --write-baseline

``--check`` gates the deterministic call-shape metrics (cost-table
entries, facade backend calls, kernel batch pairs) against the
committed baseline (``baselines/cost_kernel_fig4.json``) at 10%
tolerance — catching regressions that stay correct but silently
shrink batches back toward per-pair pricing.  Wall-clock speedup is
machine-dependent and is asserted by the pytest entry points, not
gated against the baseline.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

from repro.cost.kernel import VectorizedCostSource
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.indexes.candidates import syntactically_relevant_candidates
from repro.workload.enterprise import (
    EnterpriseConfig,
    generate_enterprise_workload,
)

BASELINE_PATH = (
    Path(__file__).parent / "baselines" / "cost_kernel_fig4.json"
)
TOLERANCE = 0.10

# Fig. 4 shape: enterprise generator at scale 0.3 with width-3
# candidates maximizes the candidate/query ratio, which is where the
# scalar backend's O(Q x C) applicability scan dominates.
SCALE = 0.3
MAX_WIDTH = 3
ITERATIONS = 5
SPEEDUP_FLOOR = 5.0
REL_TOLERANCE = 1e-9

# Deterministic call-shape metrics gated by --check; speedup and the
# relative difference are asserted, not baselined.
GATED_METRICS = ("entries", "backend_calls", "kernel_batch_pairs")


def _build():
    workload = generate_enterprise_workload(EnterpriseConfig(scale=SCALE))
    candidates = syntactically_relevant_candidates(workload, MAX_WIDTH)
    return workload, candidates


def _time_rounds(make_scalar, make_vectorized, workload, candidates):
    """``ITERATIONS`` alternating rounds of both backends, collector
    parked; returns per-backend seconds, tables and optimizers.

    A fresh optimizer per sweep keeps the facade cache cold so every
    sweep times the real pricing, not dictionary lookups.  Even rounds
    time the scalar backend first, odd rounds the vectorized one.
    """
    makers = {"scalar": make_scalar, "vectorized": make_vectorized}
    seconds = {name: [] for name in makers}
    tables, optimizers = {}, {}
    gc.disable()
    try:
        for round_ in range(ITERATIONS):
            order = ("scalar", "vectorized")
            for name in order if round_ % 2 == 0 else order[::-1]:
                optimizer = makers[name]()
                start = time.perf_counter()
                tables[name] = optimizer.cost_table(workload, candidates)
                seconds[name].append(time.perf_counter() - start)
                optimizers[name] = optimizer
                gc.collect()
    finally:
        gc.enable()
    return seconds, tables, optimizers


def _worst_relative_difference(scalar_table, vector_table) -> float:
    worst = 0.0
    for key, expected in scalar_table.items():
        actual = vector_table[key]
        denominator = max(abs(expected), abs(actual), 1e-300)
        worst = max(worst, abs(expected - actual) / denominator)
    return worst


def measure() -> dict:
    """Scalar vs vectorized cost-table sweep on the Fig. 4 workload."""
    workload, candidates = _build()
    vector_source: list[VectorizedCostSource] = []

    def make_vectorized() -> WhatIfOptimizer:
        source = VectorizedCostSource(workload.schema)
        vector_source.append(source)
        return WhatIfOptimizer(source)

    seconds, tables, optimizers = _time_rounds(
        lambda: WhatIfOptimizer(
            AnalyticalCostSource(CostModel(workload.schema))
        ),
        make_vectorized,
        workload,
        candidates,
    )
    scalar_table, vector_table = tables["scalar"], tables["vectorized"]
    scalar_optimizer = optimizers["scalar"]
    vector_optimizer = optimizers["vectorized"]
    speedup = statistics.median(
        scalar / vector
        for scalar, vector in zip(seconds["scalar"], seconds["vectorized"])
    )

    if scalar_table.keys() != vector_table.keys():
        raise AssertionError(
            "vectorized cost table covers different (query, index) "
            "pairs than the scalar backend"
        )
    worst = _worst_relative_difference(scalar_table, vector_table)
    if worst > REL_TOLERANCE:
        raise AssertionError(
            f"vectorized kernel diverged from the scalar model: worst "
            f"relative difference {worst:.3e} exceeds {REL_TOLERANCE:.0e}"
        )
    scalar_statistics = scalar_optimizer.statistics
    vector_statistics = vector_optimizer.statistics
    if (
        scalar_statistics.calls != vector_statistics.calls
        or scalar_statistics.cache_hits != vector_statistics.cache_hits
    ):
        raise AssertionError(
            "WhatIfStatistics accounting differs between backends: "
            f"scalar calls={scalar_statistics.calls} "
            f"hits={scalar_statistics.cache_hits}, vectorized "
            f"calls={vector_statistics.calls} "
            f"hits={vector_statistics.cache_hits}"
        )

    kernel_statistics = vector_source[-1].statistics
    return {
        "queries": len(workload),
        "candidates": len(candidates),
        "entries": len(scalar_table),
        "backend_calls": vector_statistics.calls,
        "cache_hits": vector_statistics.cache_hits,
        "kernel_batch_pairs": kernel_statistics.batch_pairs,
        "kernel_batch_calls": kernel_statistics.batch_calls,
        "scalar_seconds": round(statistics.median(seconds["scalar"]), 4),
        "vectorized_seconds": round(
            statistics.median(seconds["vectorized"]), 4
        ),
        "speedup": round(speedup, 2),
        "worst_relative_difference": worst,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def test_vectorized_kernel_speedup(benchmark):
    """The headline claim: >= 5x on a Fig. 4-scale cost table."""
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    # Equivalence, key-set parity, and statistics parity are asserted
    # inside measure(); here only the wall-clock floor remains.
    assert results["speedup"] >= SPEEDUP_FLOOR, (
        f"vectorized kernel speedup {results['speedup']}x below the "
        f"{SPEEDUP_FLOOR}x floor (scalar {results['scalar_seconds']}s, "
        f"vectorized {results['vectorized_seconds']}s)"
    )
    # The sweep really went through the batch path: every backend call
    # was a batched kernel pair (none priced one row at a time), and
    # backend calls plus facade cache hits account for every entry.
    assert results["kernel_batch_pairs"] == results["backend_calls"]
    assert (
        results["backend_calls"] + results["cache_hits"]
        == results["entries"]
    )


def test_call_shape_within_committed_baseline(benchmark):
    """Regression gate: batch shapes stay within 10% of the baseline."""
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    failures = compare_to_baseline(results)
    assert not failures, "\n".join(failures)


# ----------------------------------------------------------------------
# standalone CLI (CI regression gate)
# ----------------------------------------------------------------------


def compare_to_baseline(results: dict) -> list[str]:
    """Non-empty list of violation messages when shapes drifted."""
    if not BASELINE_PATH.exists():
        return [
            f"missing baseline {BASELINE_PATH}; run with --write-baseline"
        ]
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    failures = []
    for metric in GATED_METRICS:
        reference = baseline["metrics"].get(metric)
        if reference is None:
            failures.append(f"{metric}: not in committed baseline")
            continue
        low = reference * (1 - TOLERANCE)
        high = reference * (1 + TOLERANCE)
        if not low <= results[metric] <= high:
            failures.append(
                f"{metric}: {results[metric]} outside "
                f"[{low:.0f}, {high:.0f}] "
                f"(baseline {reference} +/- {TOLERANCE:.0%})"
            )
    return failures


def _print_table(results: dict) -> None:
    print(
        f"{'queries':>8} {'cands':>6} {'entries':>8} {'scalar':>9} "
        f"{'vector':>9} {'speedup':>8} {'worst rel':>10}"
    )
    print(
        f"{results['queries']:>8} {results['candidates']:>6} "
        f"{results['entries']:>8} {results['scalar_seconds']:>8.3f}s "
        f"{results['vectorized_seconds']:>8.3f}s "
        f"{results['speedup']:>7.2f}x "
        f"{results['worst_relative_difference']:>10.2e}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--check",
        action="store_true",
        help="fail when batch shapes drift vs the committed baseline",
    )
    group.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the committed baseline from the current run",
    )
    arguments = parser.parse_args(argv)

    results = measure()
    _print_table(results)

    if arguments.write_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "workload": (
                        f"fig4 enterprise scale={SCALE}, "
                        f"width<={MAX_WIDTH} candidates, "
                        "seed 500"
                    ),
                    "tolerance": TOLERANCE,
                    "metrics": {
                        metric: results[metric]
                        for metric in GATED_METRICS
                    },
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
