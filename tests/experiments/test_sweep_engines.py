"""Engine coverage for the experiment budget sweeps.

``sweep_extend`` must produce the same series through the shared
multi-budget engine as through the historical naive per-budget loop
(the engine is a pure performance knob).
"""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.common import (
    analytic_optimizer,
    budget_grid,
    sweep_extend,
)

SHARES = (0.1, 0.3, 0.6)


class TestSweepExtendEngines:
    def test_shared_matches_naive_engine(self, small_workload):
        shared = sweep_extend(
            small_workload,
            analytic_optimizer(small_workload),
            SHARES,
            engine="shared",
        )
        naive = sweep_extend(
            small_workload,
            analytic_optimizer(small_workload),
            SHARES,
            engine="naive",
        )
        assert shared.points == naive.points
        assert len(shared.runtimes) == len(naive.runtimes)

    def test_shared_engine_saves_backend_calls(self, small_workload):
        """Both engines share one facade cache when handed the same
        optimizer, so their totals tie; the genuine savings show
        against fresh standalone per-budget runs."""
        shared = sweep_extend(
            small_workload,
            analytic_optimizer(small_workload),
            SHARES,
            engine="shared",
        )
        standalone_calls = 0
        for share in SHARES:
            series = sweep_extend(
                small_workload,
                analytic_optimizer(small_workload),
                (share,),
                engine="naive",
            )
            standalone_calls += series.whatif_calls
        assert shared.whatif_calls < standalone_calls

    @pytest.mark.parametrize("engine", ["shared", "naive"])
    def test_per_point_call_deltas_recorded(
        self, small_workload, engine
    ):
        series = sweep_extend(
            small_workload,
            analytic_optimizer(small_workload),
            SHARES,
            engine=engine,
        )
        assert len(series.point_whatif_calls) == len(SHARES)
        assert (
            sum(series.point_whatif_calls) == series.whatif_calls
        )
        if engine == "shared":
            # Execution is descending: the largest share (last in the
            # input order) pays the pricing, the rest run nearly free.
            assert series.point_whatif_calls[-1] == max(
                series.point_whatif_calls
            )

    def test_rejects_unknown_engine(self, small_workload):
        with pytest.raises(ExperimentError, match="engine"):
            sweep_extend(
                small_workload,
                analytic_optimizer(small_workload),
                SHARES,
                engine="turbo",
            )


class TestBudgetGridValidation:
    def test_includes_endpoints(self):
        grid = budget_grid(0.0, 1.0, 5)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0

    @pytest.mark.parametrize(
        "low, high",
        [(-0.1, 0.5), (0.0, 1.5), (0.5, 0.5), (0.6, 0.2)],
    )
    def test_rejects_out_of_range_grids(self, low, high):
        with pytest.raises(ExperimentError):
            budget_grid(low, high, 5)
