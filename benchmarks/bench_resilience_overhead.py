"""Benchmark: overhead of the resilience wrapper on a healthy backend.

Every advisor run now routes cost calls through
:class:`~repro.resilience.ResilientCostSource`.  On the happy path
(healthy backend, closed breaker) that wrapper adds one cache-key build,
one breaker check, and one stale-cache store per backend call — it must
stay cheap relative to the pricing work itself.  These benchmarks time
an Extend run against the bare source, the resilient wrapper, and the
wrapper under a 20% injected fault rate (retries plus fallback
pricing), and assert all three select the identical configuration.

Each case runs on both cost kernels: the scalar model, priced pair by
pair, and the vectorized kernel, priced in ``pair_costs`` batches.
Each kernel has its own fault-free reference and a fallback of its own
flavour, as :class:`~repro.advisor.KernelStacks` wires them.
"""

from __future__ import annotations

import pytest

from repro.core.extend import ExtendAlgorithm
from repro.cost.kernel import VectorizedCostSource
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.indexes.memory import relative_budget
from repro.resilience import (
    FaultInjectingCostSource,
    ResiliencePolicy,
    ResilientCostSource,
)

_NO_SLEEP = ResiliencePolicy(max_retries=10, backoff_base_s=0.0)

_KERNELS = {
    "scalar": lambda schema: AnalyticalCostSource(CostModel(schema)),
    "vectorized": VectorizedCostSource,
}


@pytest.fixture(scope="module", params=sorted(_KERNELS))
def make_source(request):
    """A fresh cost source of one kernel flavour per call."""
    return _KERNELS[request.param]


@pytest.fixture(scope="module")
def budget(bench_workload):
    return relative_budget(bench_workload.schema, 0.25)


@pytest.fixture(scope="module")
def reference(bench_workload, budget, make_source):
    """The fault-free selection every variant of a kernel must
    reproduce."""
    return _select(make_source(bench_workload.schema), bench_workload, budget)


def _select(source, workload, budget):
    return ExtendAlgorithm(WhatIfOptimizer(source)).select(
        workload, budget
    )


def test_bare_source(
    benchmark, bench_workload, budget, make_source, reference
):
    result = benchmark(
        lambda: _select(
            make_source(bench_workload.schema), bench_workload, budget
        )
    )
    assert result.configuration == reference.configuration
    assert result.total_cost == reference.total_cost


def test_resilient_wrapper_healthy(
    benchmark, bench_workload, budget, make_source, reference
):
    result = benchmark(
        lambda: _select(
            ResilientCostSource(
                make_source(bench_workload.schema), policy=_NO_SLEEP
            ),
            bench_workload,
            budget,
        )
    )
    assert result.configuration == reference.configuration
    assert result.total_cost == reference.total_cost


def test_resilient_wrapper_20pct_faults(
    benchmark, bench_workload, budget, make_source, reference
):
    schema = bench_workload.schema

    def run():
        flaky = FaultInjectingCostSource(
            make_source(schema), failure_rate=0.2, seed=1909
        )
        result = _select(
            ResilientCostSource(
                flaky, policy=_NO_SLEEP, fallbacks=(make_source(schema),)
            ),
            bench_workload,
            budget,
        )
        return result, flaky.statistics

    result, faults = benchmark(run)
    assert faults.injected_failures > 0
    # Retries and fallbacks are transparent: identical selection.
    assert result.configuration == reference.configuration
    assert result.total_cost == pytest.approx(reference.total_cost)
