"""Tests for the high-level IndexAdvisor facade."""

from __future__ import annotations

import json
import math

import pytest

from repro.advisor import IndexAdvisor
from repro.exceptions import (
    BudgetError,
    ExperimentError,
    IndexDefinitionError,
)
from repro.telemetry import InMemorySink, Telemetry
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.query import Query


@pytest.fixture
def advisor(tiny_schema) -> IndexAdvisor:
    return IndexAdvisor(tiny_schema)


_SQL = [
    ("SELECT * FROM ORDERS WHERE ID = ?", 100.0),
    ("SELECT * FROM ORDERS WHERE CUSTOMER = ? AND REGION = ?", 50.0),
    ("SELECT * FROM ITEMS WHERE ID = ?", 200.0),
]


class TestInputCoercion:
    def test_accepts_sql_templates(self, advisor):
        recommendation = advisor.recommend(_SQL, budget_share=0.5)
        assert recommendation.workload.query_count == 3
        assert recommendation.indexes

    def test_accepts_plain_sql_strings(self, advisor):
        recommendation = advisor.recommend(
            ["SELECT * FROM ORDERS WHERE ID = ?"], budget_share=0.5
        )
        assert recommendation.workload.query_count == 1

    def test_accepts_workload(self, advisor, tiny_workload):
        recommendation = advisor.recommend(
            tiny_workload, budget_share=0.5
        )
        assert recommendation.workload is tiny_workload

    def test_accepts_query_objects(self, advisor):
        queries = [Query(0, "ORDERS", frozenset({0}), 10.0)]
        recommendation = advisor.recommend(queries, budget_share=0.5)
        assert recommendation.workload.query_count == 1

    def test_rejects_empty(self, advisor):
        with pytest.raises(ExperimentError, match="empty"):
            advisor.recommend([], budget_share=0.5)


class TestBudgets:
    def test_requires_exactly_one_budget(self, advisor):
        with pytest.raises(BudgetError, match="exactly one"):
            advisor.recommend(_SQL)
        with pytest.raises(BudgetError, match="exactly one"):
            advisor.recommend(_SQL, budget_share=0.5, budget_bytes=100)

    def test_absolute_budget_respected(self, advisor):
        recommendation = advisor.recommend(_SQL, budget_bytes=1_000_000)
        assert recommendation.result.memory <= 1_000_000

    def test_rejects_negative_bytes(self, advisor):
        with pytest.raises(BudgetError, match="budget_bytes"):
            advisor.recommend(_SQL, budget_bytes=-1)

    @pytest.mark.parametrize(
        "budget",
        [
            {"budget_share": math.nan},
            {"budget_share": math.inf},
            {"budget_share": 10**400},
            {"budget_bytes": math.nan},
            {"budget_bytes": math.inf},
            {"budget_bytes": 10**400},
        ],
    )
    def test_rejects_non_finite_budgets(self, budget):
        # A NaN share must not run: Extend would select nothing and
        # swap would read "needed <= NaN" as fitting.
        workload = generate_workload(GeneratorConfig(tables=2, seed=7))
        with pytest.raises(BudgetError, match="finite"):
            IndexAdvisor(workload.schema).recommend(workload, **budget)


class TestSwapEvents:
    def test_swap_that_frees_memory_has_no_ratio(self):
        """Benefit per added byte is undefined for a swap that frees
        memory: its event says ``None``, not an infinity that no strict
        JSON reader accepts."""
        workload = generate_workload(
            GeneratorConfig(tables=2, queries_per_table=8, seed=1)
        )
        sink = InMemorySink()
        IndexAdvisor(
            workload.schema, telemetry=Telemetry(sinks=(sink,))
        ).recommend(workload, budget_share=0.1)
        swaps = [
            record
            for record in sink.records
            if record.get("type") == "step" and record["action"] == "swap"
        ]
        freeing = [r for r in swaps if r["memory_delta"] <= 0]
        assert freeing
        assert all(record["ratio"] is None for record in freeing)
        for record in swaps:
            json.dumps(record, allow_nan=False)


class TestCostStack:
    def test_the_kernel_is_the_only_analytic_backend(self, advisor):
        stack = advisor.kernel_stacks
        assert stack.stack("vectorized") == (
            advisor.resilience, advisor.optimizer
        )
        assert stack.analytic("vectorized") is stack.kernel
        for name in ("scalar", "quantum"):
            with pytest.raises(ExperimentError, match="kernel"):
                stack.stack(name)
            with pytest.raises(ExperimentError, match="kernel"):
                stack.analytic(name)


class TestAlgorithms:
    @pytest.mark.parametrize(
        "algorithm",
        [
            "extend",
            "extend+swap",
            "cophy",
            "h1",
            "h2",
            "h3",
            "h4",
            "h4+skyline",
            "h5",
        ],
    )
    def test_all_algorithms_produce_recommendations(
        self, advisor, algorithm
    ):
        recommendation = advisor.recommend(
            _SQL, budget_share=0.5, algorithm=algorithm
        )
        assert recommendation.result.memory <= (
            recommendation.result.budget
        )
        assert recommendation.report.baseline_cost > 0

    def test_rejects_unknown_algorithm(self, advisor):
        with pytest.raises(ExperimentError, match="unknown algorithm"):
            advisor.recommend(_SQL, budget_share=0.5, algorithm="magic")

    def test_swap_never_worse_than_plain(self, advisor):
        plain = advisor.recommend(
            _SQL, budget_share=0.3, algorithm="extend"
        )
        swapped = advisor.recommend(
            _SQL, budget_share=0.3, algorithm="extend+swap"
        )
        assert swapped.result.total_cost <= (
            plain.result.total_cost * (1 + 1e-9)
        )


class TestArgumentValidation:
    """Bad request arguments fail before any selection work starts."""

    @pytest.mark.parametrize("algorithm", ["extend", "extend+swap", "h4"])
    def test_negative_hot_spot_count(self, advisor, algorithm):
        with pytest.raises(ExperimentError, match="hot_spot_count"):
            advisor.recommend(
                _SQL,
                budget_share=0.5,
                algorithm=algorithm,
                hot_spot_count=-1,
            )
        assert advisor.optimizer.statistics.calls == 0
        assert advisor.optimizer.statistics.total_requests == 0

    @pytest.mark.parametrize("algorithm", ["extend", "extend+swap", "h4"])
    @pytest.mark.parametrize("width", [0, -1, 2.5, True, "4", None])
    def test_bad_candidate_width(self, advisor, algorithm, width):
        with pytest.raises(IndexDefinitionError, match="candidate_width"):
            advisor.recommend(
                _SQL,
                budget_share=0.5,
                algorithm=algorithm,
                candidate_width=width,
            )
        assert advisor.optimizer.statistics.calls == 0
        assert advisor.optimizer.statistics.total_requests == 0


class TestRecommendation:
    def test_report_is_renderable(self, advisor):
        recommendation = advisor.recommend(_SQL, budget_share=0.5)
        text = recommendation.report.render(recommendation.workload)
        assert "# Index advisor report" in text

    def test_indexes_are_labels(self, advisor):
        recommendation = advisor.recommend(_SQL, budget_share=0.5)
        assert all(
            "(" in label and label.endswith(")")
            for label in recommendation.indexes
        )

    def test_shared_cache_across_calls(self, advisor):
        advisor.recommend(_SQL, budget_share=0.5)
        calls_after_first = advisor.optimizer.calls
        advisor.recommend(_SQL, budget_share=0.5)
        # Identical second run: everything cached.
        assert advisor.optimizer.calls == calls_after_first


class TestResilienceIntegration:
    def test_resilience_property_exposes_the_wrapper(self, advisor):
        from repro.resilience import BreakerState, ResilientCostSource

        assert isinstance(advisor.resilience, ResilientCostSource)
        assert advisor.resilience.breaker.state is BreakerState.CLOSED

    def test_custom_cost_source_gets_analytic_fallback(
        self, tiny_schema
    ):
        class Dead:
            def query_cost(self, query, index):
                from repro.exceptions import TransientCostSourceError

                raise TransientCostSourceError("backend down")

        from repro.resilience import ResiliencePolicy

        advisor = IndexAdvisor(
            tiny_schema,
            cost_source=Dead(),
            resilience=ResiliencePolicy(
                max_retries=0, backoff_base_s=0.0
            ),
        )
        recommendation = advisor.recommend(_SQL, budget_share=0.5)
        assert recommendation.indexes
        assert advisor.resilience.statistics.fallback_calls > 0

    def test_per_call_policy_swap(self, advisor):
        from repro.resilience import ResiliencePolicy

        advisor.recommend(
            _SQL,
            budget_share=0.5,
            resilience=ResiliencePolicy(max_retries=7),
        )
        assert advisor.resilience.policy.max_retries == 7

    def test_solver_time_limit_reaches_cophy(
        self, advisor, monkeypatch
    ):
        import repro.advisor as advisor_module

        captured = {}
        real = advisor_module.CoPhyAlgorithm

        class Probe(real):
            def __init__(self, optimizer, **kwargs):
                captured["time_limit"] = kwargs.get("time_limit")
                super().__init__(optimizer, **kwargs)

        monkeypatch.setattr(advisor_module, "CoPhyAlgorithm", Probe)
        advisor.recommend(
            _SQL,
            budget_share=0.5,
            algorithm="cophy",
            solver_time_limit=42.0,
        )
        assert captured["time_limit"] == 42.0

    def test_solver_failure_falls_back_to_extend(
        self, tiny_schema, monkeypatch
    ):
        import repro.advisor as advisor_module
        from repro.core.steps import STATUS_DEGRADED
        from repro.exceptions import SolverTimeoutError
        from repro.telemetry import Telemetry

        class Doomed:
            def __init__(self, optimizer, **kwargs):
                pass

            def select(self, workload, budget, candidates, **kwargs):
                raise SolverTimeoutError("no incumbent")

        monkeypatch.setattr(advisor_module, "CoPhyAlgorithm", Doomed)
        telemetry = Telemetry()
        advisor = IndexAdvisor(tiny_schema, telemetry=telemetry)
        recommendation = advisor.recommend(
            _SQL, budget_share=0.5, algorithm="cophy"
        )
        result = recommendation.result
        assert result.status == STATUS_DEGRADED
        assert result.memory <= result.budget
        assert len(result.configuration) > 0
        metrics = telemetry.snapshot().metrics
        assert metrics["advisor.solver_fallbacks"] == 1

    def test_deadline_s_degrades_gracefully(self, advisor):
        from repro.core.steps import STATUS_DEGRADED

        recommendation = advisor.recommend(
            _SQL, budget_share=0.5, algorithm="extend", deadline_s=0.0
        )
        assert recommendation.result.status == STATUS_DEGRADED
        # Degradation is visible in the rendered summary too.
        assert "[degraded]" in recommendation.result.summary()


class TestRecommendSweep:
    SHARES = (0.2, 0.5, 0.8)

    def test_points_match_individual_recommends(self, advisor):
        sweep = advisor.recommend_sweep(
            _SQL, budget_shares=self.SHARES
        )
        assert not sweep.partial
        assert [
            point.budget_share for point in sweep.points
        ] == list(self.SHARES)
        for share in self.SHARES:
            single = advisor.recommend(_SQL, budget_share=share)
            point = sweep.sweep.point_for(share)
            assert point is not None
            assert (
                point.result.step_trace()
                == single.result.step_trace()
            )
            assert sweep.indexes_at(share) == single.indexes

    def test_indexes_at_unanswered_share_is_none(self, advisor):
        sweep = advisor.recommend_sweep(
            _SQL, budget_shares=self.SHARES
        )
        assert sweep.indexes_at(0.99) is None

    def test_frontier_is_monotone(self, advisor):
        sweep = advisor.recommend_sweep(
            _SQL, budget_shares=self.SHARES
        )
        costs = [
            point.result.total_cost
            for point in sorted(
                sweep.points, key=lambda p: p.budget_share
            )
        ]
        assert costs == sorted(costs, reverse=True)

    @pytest.mark.parametrize(
        "bad", [(), (0.3, 0.3), (0.0,), (-0.1,), (1.5,)]
    )
    def test_rejects_bad_shares(self, advisor, bad):
        with pytest.raises(ExperimentError):
            advisor.recommend_sweep(_SQL, budget_shares=bad)

    def test_zero_deadline_degrades_to_partial(self, advisor):
        sweep = advisor.recommend_sweep(
            _SQL, budget_shares=self.SHARES, deadline_s=0.0
        )
        assert sweep.partial
        assert len(sweep.points) == 1
        # The one answered point is the first share — points run in
        # the caller's order — and it is flagged degraded.
        assert sweep.points[0].budget_share == self.SHARES[0]
        assert sweep.points[0].result.degraded

    def test_telemetry_snapshot_carries_sweep_gauges(self, tiny_schema):
        from repro.telemetry import Telemetry

        advisor = IndexAdvisor(tiny_schema, telemetry=Telemetry())
        sweep = advisor.recommend_sweep(
            _SQL, budget_shares=self.SHARES
        )
        metrics = sweep.telemetry.metrics
        assert metrics["sweep.points"] == len(self.SHARES)
        assert metrics["sweep.completed_points"] == len(self.SHARES)
        assert metrics["sweep.backend_calls"] > 0
        assert metrics["sweep.partial"] == 0


def test_default_paths_never_import_scipy():
    """Only CoPhy needs scipy: importing the package, a default
    recommend and a served recommend leave it unimported (it takes
    longer to import than a warm request takes to answer)."""
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    script = textwrap.dedent(
        """
        import sys
        import repro
        from repro.service import AdvisorService, RecommendRequest

        workload = repro.generate_workload(
            repro.GeneratorConfig(tables=2, attributes_per_table=6,
                                  queries_per_table=4, seed=7)
        )
        repro.IndexAdvisor(workload.schema).recommend(
            workload, budget_share=0.3
        )
        with AdvisorService(workload.schema) as service:
            service.register_workload("w", workload)
            service.recommend(RecommendRequest(workload="w",
                                               budget_share=0.3))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    source = Path(__file__).resolve().parents[1] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(source)},
        timeout=120,
    )
    assert completed.stdout.strip() == "[]"
