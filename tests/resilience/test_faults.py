"""Tests for the deterministic fault-injection harness."""

from __future__ import annotations

import pytest

from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource
from repro.exceptions import ExperimentError, TransientCostSourceError
from repro.resilience import (
    FaultInjectingCostSource,
    ManualClock,
    fail_n_then_succeed,
)
from repro.telemetry import MetricsRegistry


@pytest.fixture
def analytical(tiny_workload):
    return AnalyticalCostSource(CostModel(tiny_workload.schema))


@pytest.fixture
def a_query(tiny_workload):
    return tiny_workload.queries[0]


class TestScripts:
    def test_fail_n_then_succeed(self, analytical, a_query):
        source = FaultInjectingCostSource(
            analytical, script=fail_n_then_succeed(2)
        )
        for _ in range(2):
            with pytest.raises(TransientCostSourceError):
                source.query_cost(a_query, None)
        cost = source.query_cost(a_query, None)
        assert cost == analytical.query_cost(a_query, None)
        assert source.statistics.injected_failures == 2
        assert source.statistics.calls == 3

    def test_exhausted_script_means_healthy(self, analytical, a_query):
        source = FaultInjectingCostSource(analytical, script=["fail"])
        with pytest.raises(TransientCostSourceError):
            source.query_cost(a_query, None)
        for _ in range(5):
            source.query_cost(a_query, None)
        assert source.statistics.injected_failures == 1

    def test_explicit_outcome_sequence(self, analytical, a_query):
        clock = ManualClock()
        source = FaultInjectingCostSource(
            analytical,
            script=["ok", "slow", "fail"],
            spike_latency_s=3.0,
            clock=clock,
        )
        source.query_cost(a_query, None)
        assert clock.now == 0.0
        source.query_cost(a_query, None)  # slow
        assert clock.now == 3.0
        with pytest.raises(TransientCostSourceError):
            source.query_cost(a_query, None)

    def test_rejects_unknown_token(self, analytical, a_query):
        source = FaultInjectingCostSource(analytical, script=["boom"])
        with pytest.raises(ExperimentError, match="boom"):
            source.query_cost(a_query, None)

    def test_fail_n_rejects_negative(self):
        with pytest.raises(ExperimentError):
            fail_n_then_succeed(-1)


class TestSeededFaults:
    def test_same_seed_replays_identically(self, analytical, a_query):
        outcomes = []
        for _ in range(2):
            source = FaultInjectingCostSource(
                analytical, failure_rate=0.5, seed=123
            )
            run = []
            for _ in range(30):
                try:
                    source.query_cost(a_query, None)
                    run.append("ok")
                except TransientCostSourceError:
                    run.append("fail")
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert "fail" in outcomes[0]
        assert "ok" in outcomes[0]

    def test_different_seeds_differ(self, analytical, a_query):
        def run(seed):
            source = FaultInjectingCostSource(
                analytical, failure_rate=0.5, seed=seed
            )
            result = []
            for _ in range(30):
                try:
                    source.query_cost(a_query, None)
                    result.append("ok")
                except TransientCostSourceError:
                    result.append("fail")
            return result

        assert run(1) != run(2)

    def test_zero_rate_never_fails(self, analytical, a_query):
        source = FaultInjectingCostSource(analytical, failure_rate=0.0)
        for _ in range(50):
            source.query_cost(a_query, None)
        assert source.statistics.injected_failures == 0

    def test_rejects_invalid_rates(self, analytical):
        with pytest.raises(ExperimentError):
            FaultInjectingCostSource(analytical, failure_rate=1.5)
        with pytest.raises(ExperimentError):
            FaultInjectingCostSource(analytical, spike_rate=-0.1)


class TestLatency:
    def test_base_latency_advances_the_clock(self, analytical, a_query):
        clock = ManualClock()
        source = FaultInjectingCostSource(
            analytical, base_latency_s=0.5, clock=clock
        )
        source.query_cost(a_query, None)
        source.query_cost(a_query, None)
        assert clock.now == pytest.approx(1.0)

    def test_spikes_are_seeded(self, analytical, a_query):
        clock = ManualClock()
        source = FaultInjectingCostSource(
            analytical,
            spike_rate=1.0,
            spike_latency_s=2.0,
            clock=clock,
            seed=7,
        )
        source.query_cost(a_query, None)
        assert source.statistics.injected_latency_spikes == 1
        assert clock.now == pytest.approx(2.0)


class TestProtocolMirroring:
    def test_mirrors_optional_methods(self, analytical, a_query,
                                      tiny_workload):
        source = FaultInjectingCostSource(analytical)
        # The analytic backend supports the optional method.
        assert callable(getattr(source, "multi_index_cost", None))

    def test_hides_unsupported_methods(self, a_query):
        class Minimal:
            def query_cost(self, query, index):
                return 1.0

        source = FaultInjectingCostSource(Minimal())
        assert getattr(source, "multi_index_cost", None) is None
        assert source.query_cost(a_query, None) == 1.0

    def test_statistics_publish(self, analytical, a_query):
        source = FaultInjectingCostSource(analytical)
        source.query_cost(a_query, None)
        registry = MetricsRegistry()
        registry.publish("faults", source.statistics)
        assert registry.snapshot()["faults.calls"] == 1
