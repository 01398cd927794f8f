"""End-to-end telemetry through the advisor and the Extend algorithm.

The acceptance criterion of the observability layer: a single
``recommend()`` run with a JSON-lines sink yields one span and one
chosen step event per selection step, per-step what-if deltas, and a
``(cost, memory)`` event sequence that reconstructs the efficient
frontier the algorithm reported.
"""

from __future__ import annotations

import pytest

from repro.advisor import IndexAdvisor
from repro.core.extend import ExtendAlgorithm
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.indexes.memory import relative_budget
from repro.telemetry import (
    NULL_TELEMETRY,
    JsonLinesSink,
    StepEvent,
    Telemetry,
)
from repro.telemetry.sinks import read_jsonl
from repro.workload.generator import GeneratorConfig, generate_workload


@pytest.fixture
def traced_run(tiny_workload, tmp_path):
    """One advisor run with a JSONL sink; returns (recommendation,
    telemetry, trace records)."""
    path = tmp_path / "trace.jsonl"
    telemetry = Telemetry(sinks=(JsonLinesSink(path),))
    advisor = IndexAdvisor(tiny_workload.schema, telemetry=telemetry)
    recommendation = advisor.recommend(
        tiny_workload, budget_share=0.3, algorithm="extend"
    )
    telemetry.close()
    return recommendation, telemetry, read_jsonl(path)


class TestAdvisorIntegration:
    def test_one_chosen_event_per_selection_step(self, traced_run):
        recommendation, _, _ = traced_run
        chosen = recommendation.telemetry.chosen_events()
        assert len(chosen) == len(recommendation.result.steps)
        assert len(chosen) > 0

    def test_events_reconstruct_the_frontier(self, traced_run):
        recommendation, _, _ = traced_run
        chosen = recommendation.telemetry.chosen_events()
        expected = [
            (
                step.cost_before,
                step.cost_after,
                step.memory_before,
                step.memory_after,
            )
            for step in recommendation.result.steps
        ]
        observed = [
            (
                event.cost_before,
                event.cost_after,
                event.memory_before,
                event.memory_after,
            )
            for event in chosen
        ]
        assert observed == expected
        # The deltas chain: each step starts where the previous ended.
        for before, after in zip(chosen, chosen[1:]):
            assert after.cost_before == before.cost_after
            assert after.memory_before == before.memory_after

    def test_one_step_span_per_selection_step(self, traced_run):
        recommendation, telemetry, _ = traced_run
        step_spans = [
            span
            for span in telemetry.tracer.spans
            if span.name == "extend.step"
        ]
        applied = [
            span
            for span in step_spans
            if span.attributes.get("outcome") == "applied"
        ]
        assert len(applied) == len(recommendation.result.steps)
        for span in applied:
            assert span.attributes["whatif_calls"] >= 0
            assert span.attributes["cache_hits"] >= 0

    def test_whatif_deltas_on_chosen_events(self, traced_run):
        recommendation, _, _ = traced_run
        chosen = recommendation.telemetry.chosen_events()
        assert all(event.whatif_calls is not None for event in chosen)
        assert sum(event.whatif_calls for event in chosen) > 0

    def test_trace_file_replays_the_run(self, traced_run):
        recommendation, _, records = traced_run
        events = [
            StepEvent.from_dict(record)
            for record in records
            if record["type"] == "step"
        ]
        chosen = [event for event in events if event.chosen]
        assert tuple(chosen) == recommendation.telemetry.chosen_events()
        span_names = {
            record["name"]
            for record in records
            if record["type"] == "span"
        }
        assert {"advisor.recommend", "extend.select", "extend.step"} <= (
            span_names
        )
        [metrics] = [r for r in records if r["type"] == "metrics"]
        assert metrics["metrics"]["extend.steps"] == len(
            recommendation.result.steps
        )

    def test_whatif_gauges_published(self, traced_run):
        _, telemetry, _ = traced_run
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["whatif.calls"] > 0
        assert 0.0 <= snapshot["whatif.hit_rate"] <= 1.0


class TestDisabledTelemetry:
    def test_disabled_run_records_nothing(self, tiny_workload):
        advisor = IndexAdvisor(tiny_workload.schema)
        recommendation = advisor.recommend(
            tiny_workload, budget_share=0.3, algorithm="extend"
        )
        assert recommendation.telemetry.empty
        assert recommendation.result.steps  # the run itself still works

    def test_disabled_and_enabled_select_identically(
        self, tiny_workload, tiny_optimizer
    ):
        budget = relative_budget(tiny_workload.schema, 0.3)
        plain = ExtendAlgorithm(tiny_optimizer).select(
            tiny_workload, budget
        )
        traced = ExtendAlgorithm(
            tiny_optimizer, telemetry=Telemetry()
        ).select(tiny_workload, budget)
        assert plain.configuration == traced.configuration
        assert [
            (step.kind, step.index_after) for step in plain.steps
        ] == [(step.kind, step.index_after) for step in traced.steps]

    @pytest.mark.parametrize(
        ("shape", "seed", "prices_rivals"),
        [((2, 6, 6), 7, True), ((3, 10, 15), 11, False)],
    )
    def test_tracing_adds_no_pricing(self, shape, seed, prices_rivals):
        """Enabled telemetry logs rejected rivals from the moves each
        step already priced: on fresh facades the traced run makes the
        same what-if calls, hits and steps as the untraced one.  A run
        whose steps price rivals besides their winners still logs
        them as rejected events."""
        tables, attributes, queries = shape
        workload = generate_workload(
            GeneratorConfig(
                tables=tables,
                attributes_per_table=attributes,
                queries_per_table=queries,
                seed=seed,
            )
        )
        budget = relative_budget(workload.schema, 0.2)
        runs = {}
        for name, telemetry in (
            ("plain", NULL_TELEMETRY),
            ("traced", Telemetry()),
        ):
            optimizer = WhatIfOptimizer(
                AnalyticalCostSource(CostModel(workload.schema))
            )
            result = ExtendAlgorithm(
                optimizer, telemetry=telemetry
            ).select(workload, budget)
            runs[name] = (result, optimizer.statistics, telemetry)
        plain, plain_statistics, _ = runs["plain"]
        traced, traced_statistics, telemetry = runs["traced"]
        assert traced.step_trace() == plain.step_trace()
        assert traced.total_cost == plain.total_cost
        assert traced_statistics == plain_statistics
        assert len(traced.steps) > 1
        rejected = [
            event for event in telemetry.events if not event.chosen
        ]
        assert {event.step_number for event in rejected} <= {
            step.step_number for step in traced.steps
        }
        if prices_rivals:
            assert rejected

    def test_null_telemetry_is_shared_and_inert(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.snapshot().empty
