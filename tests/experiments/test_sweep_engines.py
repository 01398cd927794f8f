"""Coverage of the experiment budget sweeps.

``sweep_extend`` runs Extend once per share over one shared what-if
facade; its series must equal a naive loop of fresh standalone runs
(the shared facade only saves backend calls).
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


def _standalone(workload, share):
    """One share on a fresh facade (the naive per-budget loop)."""
    return sweep_extend(workload, analytic_optimizer(workload), (share,))


class TestSweepExtendEngines:
    def test_shared_matches_naive_engine(self, small_workload):
        shared = sweep_extend(
            small_workload,
            analytic_optimizer(small_workload),
            SHARES,
        )
        naive = [
            point
            for share in SHARES
            for point in _standalone(small_workload, share).points
        ]
        assert shared.points == naive
        assert len(shared.runtimes) == len(SHARES)

    def test_shared_engine_saves_backend_calls(self, small_workload):
        """One facade across the points prices each pair once; fresh
        standalone per-budget runs re-price the pairs they share."""
        shared = sweep_extend(
            small_workload,
            analytic_optimizer(small_workload),
            SHARES,
        )
        standalone_calls = sum(
            _standalone(small_workload, share).whatif_calls
            for share in SHARES
        )
        assert shared.whatif_calls < standalone_calls

    def test_per_point_call_deltas_recorded(self, small_workload):
        series = sweep_extend(
            small_workload,
            analytic_optimizer(small_workload),
            SHARES,
        )
        assert len(series.point_whatif_calls) == len(SHARES)
        assert (
            sum(series.point_whatif_calls) == series.whatif_calls
        )
        # The first share runs on a cold facade and pays its pricing.
        assert series.point_whatif_calls[0] > 0


class TestBudgetGridValidation:
    def test_includes_endpoints(self):
        grid = budget_grid(0.0, 1.0, 5)
        assert grid[0] == 0.0
        assert grid[-1] == 1.0

    @pytest.mark.parametrize(
        ("low", "high", "steps"), [(0.0, 0.4, 9), (0.08, 1.0, 4)]
    )
    def test_keeps_linear_interior_and_ends_at_high(self, low, high, steps):
        """Interior points stay ``low + width * step`` (figure grids do
        not move); the last is ``high`` itself, which that formula
        overshoots to 1.0000000000000002 for the second grid."""
        width = (high - low) / (steps - 1)
        grid = budget_grid(low, high, steps)
        assert grid[:-1] == [low + width * step for step in range(steps - 1)]
        assert grid[-1] == high

    @pytest.mark.parametrize(
        "low, high",
        [(-0.1, 0.5), (0.0, 1.5), (0.5, 0.5), (0.6, 0.2)],
    )
    def test_rejects_out_of_range_grids(self, low, high):
        with pytest.raises(ExperimentError):
            budget_grid(low, high, 5)
