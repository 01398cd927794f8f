"""Benchmark: what-if call accounting and caching (Section III-A).

Measures H6's and CoPhy's optimizer-call counts against the paper's
formulas and benchmarks the caching facade itself (the ablation for the
"caching on/off" design choice).
"""

from __future__ import annotations

from repro.core.extend import ExtendAlgorithm
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.experiments.whatif_calls import WhatIfCallsConfig, run
from repro.indexes.memory import relative_budget

_CONFIG = WhatIfCallsConfig(
    queries_per_table_values=(20, 40), candidate_set_size=400
)


def test_whatif_call_accounting(benchmark):
    rows = benchmark.pedantic(
        run, args=(_CONFIG,), rounds=1, iterations=1
    )
    for row in rows:
        # The paper's 2·Q·q̄ estimate describes the naive engine, which
        # prices every candidate; the lazy default prices fewer.
        assert row.h6_predicted <= row.naive_calls <= 2 * row.h6_predicted
        assert row.h6_calls <= row.naive_calls
    # The naive count grows roughly linearly in Q; the lazy one need not.
    ratio = rows[1].naive_calls / rows[0].naive_calls
    assert 1.2 <= ratio <= 3.5


def test_caching_ablation(benchmark, bench_workload):
    """Cache on vs off: re-running Extend against a warm facade must do
    zero backend calls — the benefit Fig. 1's caching note describes."""
    budget = relative_budget(bench_workload.schema, 0.2)

    def run_twice() -> tuple[int, int]:
        optimizer = WhatIfOptimizer(
            AnalyticalCostSource(CostModel(bench_workload.schema))
        )
        ExtendAlgorithm(optimizer).select(bench_workload, budget)
        cold_calls = optimizer.calls
        ExtendAlgorithm(optimizer).select(bench_workload, budget)
        warm_calls = optimizer.calls - cold_calls
        return cold_calls, warm_calls

    cold_calls, warm_calls = benchmark.pedantic(
        run_twice, rounds=1, iterations=1
    )
    assert cold_calls > 0
    assert warm_calls == 0
