"""Tests for the multi-budget frontier sweep.

Unit coverage for share validation, the budget grid and the sweep
result model, plus the property suite behind the sweep's central
guarantee: one loop over a shared what-if facade is *observationally
identical* to a fresh standalone run per budget — same step traces,
same costs, same configurations — for every workload, budget grid,
cost kernel, and even under injected backend faults.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import EvaluationConfig
from repro.core.extend import ExtendAlgorithm
from repro.core.sweep import (
    SweepResult,
    SweepStatistics,
    normalize_budget_shares,
    parse_budget_sweep,
    sweep_select,
)
from repro.cost.kernel import VectorizedCostSource
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer
from repro.exceptions import ExperimentError
from repro.indexes.memory import relative_budget
from repro.resilience import (
    Deadline,
    FaultInjectingCostSource,
    ResiliencePolicy,
    ResilientCostSource,
)
from repro.telemetry import Telemetry
from tests.integration.test_properties import random_workloads

SHARES = (0.1, 0.3, 0.6)
NO_SLEEP = ResiliencePolicy(backoff_base_s=0.0)


def _optimizer(workload, source=None):
    if source is None:
        source = AnalyticalCostSource(CostModel(workload.schema))
    return WhatIfOptimizer(source)


def _naive_frontier(workload, shares, source_factory=None):
    """Ground truth: a fresh standalone run per budget share."""
    runs = {}
    for share in shares:
        source = source_factory() if source_factory else None
        optimizer = _optimizer(workload, source)
        runs[share] = ExtendAlgorithm(optimizer).select(
            workload, relative_budget(workload.schema, share)
        )
    return runs


class _Recording(ExtendAlgorithm):
    """Extend that records the budget of every run it starts."""

    def __init__(self, optimizer, ran):
        super().__init__(optimizer)
        self._ran = ran

    def select(self, workload, budget, **kwargs):
        self._ran.append(budget)
        return super().select(workload, budget, **kwargs)


def _assert_point_equivalent(reference, candidate):
    assert candidate.step_trace() == reference.step_trace()
    assert (
        candidate.configuration_signature()
        == reference.configuration_signature()
    )
    assert candidate.memory == reference.memory
    assert candidate.total_cost == reference.total_cost


class TestNormalizeBudgetShares:
    def test_preserves_caller_order(self):
        assert normalize_budget_shares((0.5, 0.1, 1)) == (0.5, 0.1, 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ExperimentError, match="at least one"):
            normalize_budget_shares(())

    def test_rejects_string_input(self):
        with pytest.raises(ExperimentError, match="parse_budget_sweep"):
            normalize_budget_shares("0.1:1.0:10")

    @pytest.mark.parametrize(
        "bad", [None, "0.3", True, float("nan"), 0, 0.0, -0.1, 1.5]
    )
    def test_rejects_non_positive_and_non_numbers(self, bad):
        with pytest.raises(ExperimentError):
            normalize_budget_shares((0.5, bad))

    def test_rejects_duplicates(self):
        with pytest.raises(ExperimentError, match="duplicate"):
            normalize_budget_shares((0.3, 0.1, 0.3))


class TestParseBudgetSweep:
    def test_linear_grid(self):
        shares = parse_budget_sweep("0.1:1.0:10")
        assert len(shares) == 10
        assert shares[0] == pytest.approx(0.1)
        assert shares[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "spec",
        [
            "0.1:1.0",  # missing steps
            "0.1:1.0:10:4",  # too many fields
            "a:b:c",  # non-numeric
            "0.1:1.0:1",  # steps < 2
            "0:1.0:5",  # low must be > 0
            "0.5:0.1:5",  # low >= high
            "0.5:1.5:5",  # high > 1
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ExperimentError):
            parse_budget_sweep(spec)

    def test_grid_ending_at_one_parses(self):
        # low + width * (steps - 1) is 1.0000000000000002 here.
        shares = parse_budget_sweep("0.08:1.0:4")
        assert shares[0] == 0.08
        assert shares[-1] == 1.0
        assert len(shares) == 4

    @given(
        low=st.integers(min_value=1, max_value=9_999),
        span=st.integers(min_value=1, max_value=9_999),
        steps=st.integers(min_value=2, max_value=500),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_valid_spec_parses_and_ends_at_high(
        self, low, span, steps
    ):
        """Any ``0 < low < high <= 1`` (four decimals) and ``steps >=
        2`` parses to a strictly increasing grid from ``low`` to exactly
        ``high``."""
        high = min(low + span, 10_000)
        spec = f"{low / 10_000}:{high / 10_000}:{steps}"
        shares = parse_budget_sweep(spec)
        assert len(shares) == steps
        assert shares[0] == float(spec.split(":")[0])
        assert shares[-1] == float(spec.split(":")[1])
        assert all(
            before < after for before, after in zip(shares, shares[1:])
        )


class TestSweepSelect:
    def test_matches_naive_per_budget_loop(self, small_workload):
        naive = _naive_frontier(small_workload, SHARES)
        sweep = sweep_select(
            small_workload, _optimizer(small_workload), SHARES
        )
        assert [p.budget_share for p in sweep.points] == list(SHARES)
        for point in sweep.points:
            _assert_point_equivalent(naive[point.budget_share], point.result)
        assert not sweep.partial
        assert sweep.status == "completed"

    def test_executes_in_caller_order(self, small_workload):
        descending = tuple(sorted(SHARES, reverse=True))
        for shares in (SHARES, descending):
            ran = []
            sweep_select(
                small_workload,
                _optimizer(small_workload),
                shares,
                algorithm_factory=lambda optimizer: _Recording(
                    optimizer, ran
                ),
            )
            assert ran == [
                relative_budget(small_workload.schema, share)
                for share in shares
            ]

    def test_first_executed_point_pays_the_pricing(self, small_workload):
        sweep = sweep_select(
            small_workload, _optimizer(small_workload), SHARES
        )
        assert sweep.points[0].whatif_calls > 0
        statistics = sweep.statistics
        assert statistics.backend_calls == sum(
            p.whatif_calls for p in sweep.points
        )
        assert statistics.completed_points == len(SHARES)

    def test_resident_store_makes_repeat_sweep_free(self, small_workload):
        """The resident store is the facade's what-if cache: a repeat
        sweep over the same facade makes no backend call."""
        optimizer = _optimizer(small_workload)
        first = sweep_select(small_workload, optimizer, SHARES)
        repeat = sweep_select(small_workload, optimizer, SHARES)
        assert first.statistics.backend_calls > 0
        assert repeat.statistics.backend_calls == 0
        assert all(point.whatif_calls == 0 for point in repeat.points)
        for before, after in zip(first.points, repeat.points):
            _assert_point_equivalent(before.result, after.result)

    def test_reuses_one_facade_across_points(self, small_workload):
        """The sweep makes exactly the backend calls of the same
        per-share runs over one facade, in any share order."""
        optimizer = _optimizer(small_workload)
        for share in SHARES:
            ExtendAlgorithm(optimizer).select(
                small_workload,
                relative_budget(small_workload.schema, share),
            )
        for shares in (SHARES, tuple(reversed(SHARES))):
            sweep = sweep_select(
                small_workload, _optimizer(small_workload), shares
            )
            assert sweep.statistics.backend_calls == optimizer.calls

    def test_allows_zero_share_for_figure_grids(self, small_workload):
        sweep = sweep_select(
            small_workload, _optimizer(small_workload), (0.3, 0.0)
        )
        zero = sweep.point_for(0.0)
        assert zero is not None
        assert not zero.result.configuration

    @pytest.mark.parametrize("bad", [(0.3, -0.1), (0.3, 1.5), (0.3, 0.3)])
    def test_rejects_bad_engine_shares(self, small_workload, bad):
        with pytest.raises(ExperimentError):
            sweep_select(small_workload, _optimizer(small_workload), bad)

    def test_rejects_unknown_on_error(self, small_workload):
        with pytest.raises(ExperimentError, match="on_error"):
            sweep_select(
                small_workload,
                _optimizer(small_workload),
                SHARES,
                on_error="ignore",
            )

    def test_expired_deadline_returns_partial(self, small_workload):
        sweep = sweep_select(
            small_workload,
            _optimizer(small_workload),
            SHARES,
            deadline=Deadline(0.0),
        )
        assert sweep.partial
        assert sweep.status == "degraded"
        assert len(sweep.points) == 1
        assert len(sweep.skipped_shares) == len(SHARES) - 1
        assert sweep.notes

    def test_mid_sweep_failure_degrades_to_partial(self, small_workload):
        built = {"count": 0}

        class _Boom:
            def select(self, workload, budget, deadline=None):
                raise RuntimeError("scripted mid-sweep death")

        def factory(optimizer):
            built["count"] += 1
            if built["count"] > 1:
                return _Boom()
            return ExtendAlgorithm(optimizer)

        sweep = sweep_select(
            small_workload,
            _optimizer(small_workload),
            SHARES,
            algorithm_factory=factory,
            on_error="partial",
        )
        assert sweep.partial
        assert len(sweep.points) == 1
        assert sweep.points[0].budget_share == SHARES[0]
        assert sweep.skipped_shares == SHARES[1:]
        assert any("RuntimeError" in note for note in sweep.notes)

    def test_first_point_failure_raises_even_on_partial(
        self, small_workload
    ):
        class _Boom:
            def select(self, workload, budget, deadline=None):
                raise RuntimeError("dead on arrival")

        with pytest.raises(RuntimeError, match="dead on arrival"):
            sweep_select(
                small_workload,
                _optimizer(small_workload),
                SHARES,
                algorithm_factory=lambda optimizer: _Boom(),
                on_error="partial",
            )

    def test_mid_sweep_failure_raises_by_default(self, small_workload):
        built = {"count": 0}

        class _Boom:
            def select(self, workload, budget, deadline=None):
                raise RuntimeError("scripted mid-sweep death")

        def factory(optimizer):
            built["count"] += 1
            if built["count"] > 1:
                return _Boom()
            return ExtendAlgorithm(optimizer)

        with pytest.raises(RuntimeError):
            sweep_select(
                small_workload,
                _optimizer(small_workload),
                SHARES,
                algorithm_factory=factory,
            )

    def test_publishes_sweep_gauges(self, small_workload):
        telemetry = Telemetry()
        sweep = sweep_select(
            small_workload,
            _optimizer(small_workload),
            SHARES,
            telemetry=telemetry,
        )
        metrics = telemetry.metrics.snapshot()
        assert metrics["sweep.points"] == len(SHARES)
        assert metrics["sweep.completed_points"] == len(SHARES)
        assert (
            metrics["sweep.backend_calls"]
            == sweep.statistics.backend_calls
        )
        assert metrics["sweep.partial"] == 0

    def test_point_callback_fires_in_execution_order(
        self, small_workload
    ):
        seen = []
        sweep_select(
            small_workload,
            _optimizer(small_workload),
            SHARES,
            point_callback=lambda point: seen.append(
                point.budget_share
            ),
        )
        assert seen == list(SHARES)


class TestSweepResultModel:
    def test_frontier_and_point_lookup(self, small_workload):
        sweep = sweep_select(
            small_workload, _optimizer(small_workload), SHARES
        )
        frontier_points = list(sweep.frontier)
        assert len(frontier_points) >= 1
        assert sweep.point_for(0.3) is not None
        assert sweep.point_for(0.77) is None
        assert len(sweep.results) == len(SHARES)

    def test_partial_result_is_degraded(self):
        result = SweepResult(
            points=(), statistics=SweepStatistics(), partial=True
        )
        assert result.status == "degraded"


def _grids():
    return st.lists(
        st.floats(min_value=0.01, max_value=1.0),
        unique=True,
        min_size=1,
        max_size=4,
    )


class TestSweepEquivalenceProperties:
    """One loop over a shared facade == a fresh run per budget, for
    every input."""

    @given(workload=random_workloads(), shares=_grids())
    @settings(max_examples=60, deadline=None)
    def test_scalar_kernel(self, workload, shares):
        naive = _naive_frontier(workload, shares)
        sweep = sweep_select(workload, _optimizer(workload), shares)
        assert [p.budget_share for p in sweep.points] == list(shares)
        for point in sweep.points:
            _assert_point_equivalent(
                naive[point.budget_share], point.result
            )

    @given(workload=random_workloads(), shares=_grids())
    @settings(max_examples=25, deadline=None)
    def test_vectorized_kernel(self, workload, shares):
        naive = _naive_frontier(
            workload,
            shares,
            source_factory=lambda: VectorizedCostSource(
                workload.schema
            ),
        )
        sweep = sweep_select(
            workload,
            _optimizer(workload, VectorizedCostSource(workload.schema)),
            shares,
        )
        for point in sweep.points:
            _assert_point_equivalent(
                naive[point.budget_share], point.result
            )

    @given(
        workload=random_workloads(),
        shares=_grids(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_under_fault_injection(self, workload, shares, seed):
        """Transient backend faults, absorbed by the resilient
        wrapper, must not perturb the shared sweep's answers."""
        naive = _naive_frontier(workload, shares)
        model = CostModel(workload.schema)
        faulty = ResilientCostSource(
            FaultInjectingCostSource(
                AnalyticalCostSource(model),
                failure_rate=0.2,
                seed=seed,
            ),
            policy=NO_SLEEP,
            # The analytic fallback (same model) absorbs the rare
            # retry-exhausting fault streak, as the advisor wires it.
            fallbacks=(AnalyticalCostSource(model),),
        )
        sweep = sweep_select(
            workload, WhatIfOptimizer(faulty), shares
        )
        for point in sweep.points:
            _assert_point_equivalent(
                naive[point.budget_share], point.result
            )

    @given(workload=random_workloads(), shares=_grids())
    @settings(max_examples=15, deadline=None)
    def test_naive_evaluation_config(self, workload, shares):
        naive = _naive_frontier(workload, shares)
        sweep = sweep_select(
            workload,
            _optimizer(workload),
            shares,
            evaluation=EvaluationConfig(naive=True),
        )
        for point in sweep.points:
            _assert_point_equivalent(
                naive[point.budget_share], point.result
            )
