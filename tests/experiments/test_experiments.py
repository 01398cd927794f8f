"""Tests for the experiment harnesses (scaled-down runs)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    budget_grid,
    format_bytes,
    format_number,
    render_series,
    render_table,
)
from repro.exceptions import ExperimentError


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(
            ["A", "Bigger"],
            [(1, 2.5), (1000, 0.0001)],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "A" in lines[1] and "Bigger" in lines[1]
        assert len(lines) == 5

    def test_format_number(self):
        assert format_number(1234) == "1,234"
        assert format_number(float("inf")) == "inf"
        assert format_number(1.5e7) == "1.5e+07"
        assert format_number("x") == "x"

    def test_format_bytes(self):
        assert format_bytes(512) == "512.0 B"
        assert format_bytes(2048) == "2.0 KiB"
        assert "GiB" in format_bytes(3 * 1024**3)

    def test_render_series(self):
        text = render_series("H6", [(0.1, 100.0), (0.2, 50.0)])
        assert text.startswith("H6:")
        assert "w=0.1" in text


class TestBudgetGrid:
    def test_inclusive_endpoints(self):
        grid = budget_grid(0.0, 0.4, 5)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.4)
        assert len(grid) == 5

    def test_rejects_bad_ranges(self):
        with pytest.raises(ExperimentError):
            budget_grid(0.0, 0.4, 1)
        with pytest.raises(ExperimentError):
            budget_grid(0.5, 0.4, 3)


class TestTable1:
    def test_scaled_run(self):
        from repro.experiments.table1 import Table1Config, render, run

        rows = run(
            Table1Config(
                total_queries=(100,),
                candidate_sizes=(20, 50),
                time_limit=30.0,
            )
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.total_queries == 100
        assert row.ic_max > 0
        assert len(row.cophy_runtimes) == 2
        assert row.h6_runtime > 0
        text = render(rows)
        assert "Table I" in text


class TestFig2:
    def test_scaled_run(self):
        from repro.experiments.fig2 import Fig2Config, render, run

        series = run(
            Fig2Config(
                queries_per_table=5,
                attributes_per_table=10,
                candidate_set_size=16,
                budget_steps=3,
                include_imax=False,
                time_limit=30.0,
            )
        )
        names = [entry.name for entry in series]
        assert names[0] == "H6"
        assert any("H1-M" in name for name in names)
        assert any("H2-M" in name for name in names)
        assert any("H3-M" in name for name in names)
        for entry in series:
            assert len(entry.points) == 3
        assert "Fig. 2" in render(series)

    def test_h6_dominates_restricted_cophy(self):
        from repro.experiments.fig2 import Fig2Config, run

        series = run(
            Fig2Config(
                queries_per_table=5,
                attributes_per_table=10,
                candidate_set_size=8,
                budget_steps=3,
                include_imax=False,
                time_limit=30.0,
            )
        )
        h6 = series[0]
        for other in series[1:]:
            for (w, h6_cost), (_, other_cost) in zip(
                h6.points, other.points
            ):
                assert h6_cost <= other_cost * 1.05


class TestFig3:
    def test_scaled_run(self):
        from repro.experiments.fig3 import Fig3Config, render, run

        series = run(
            Fig3Config(
                queries_per_table=5,
                attributes_per_table=10,
                candidate_set_sizes=(8, 32),
                budget_steps=3,
                include_imax=True,
                time_limit=30.0,
            )
        )
        assert [entry.name for entry in series][0] == "H6"
        assert len(series) == 4
        assert "Fig. 3" in render(series)

    def test_larger_candidate_sets_never_worse(self):
        from repro.experiments.fig3 import Fig3Config, run

        series = run(
            Fig3Config(
                queries_per_table=5,
                attributes_per_table=10,
                candidate_set_sizes=(8, 64),
                budget_steps=3,
                include_imax=False,
                time_limit=30.0,
            )
        )
        small = dict(series[1].points)
        large = dict(series[2].points)
        for w, cost in large.items():
            assert cost <= small[w] * 1.05


class TestFig4:
    def test_scaled_run(self):
        from repro.experiments.fig4 import Fig4Config, render, run

        series = run(
            Fig4Config(
                workload_scale=0.02,
                candidate_set_sizes=(16,),
                budget_steps=3,
                include_imax=False,
                time_limit=30.0,
            )
        )
        assert series[0].name == "H6"
        assert len(series) == 2
        assert "ERP" in render(series)


class TestFig5:
    def test_scaled_run(self):
        from repro.experiments.fig5 import Fig5Config, render, run

        series = run(
            Fig5Config(
                queries_per_table=4,
                attributes_per_table=5,
                row_cap=5_000,
                budget_steps=3,
                time_limit=30.0,
            )
        )
        names = [entry.name for entry in series]
        assert "H6" in names
        assert "H1" in names
        assert "H4" in names
        assert "H4+skyline" in names
        assert "H5" in names
        assert sum("CoPhy" in name for name in names) == 2
        assert "Fig. 5" in render(series)

    def test_h6_tracks_cophy_all(self):
        from repro.experiments.fig5 import Fig5Config, run

        series = run(
            Fig5Config(
                queries_per_table=4,
                attributes_per_table=5,
                row_cap=5_000,
                budget_steps=3,
                time_limit=30.0,
            )
        )
        by_name = {entry.name: dict(entry.points) for entry in series}
        cophy_all = next(
            points
            for name, points in by_name.items()
            if name.startswith("CoPhy/all")
        )
        for w, cost in by_name["H6"].items():
            if cophy_all[w] > 0:
                assert cost <= cophy_all[w] * 1.25


class TestFig6:
    def test_linear_growth(self):
        from repro.experiments.fig6 import Fig6Config, render, run

        results = run(
            Fig6Config(
                queries_per_table=5,
                attributes_per_table=8,
                shares=(0.25, 0.5, 1.0),
            )
        )
        variables = [size.variables for _, size in results]
        assert variables == sorted(variables)
        assert "Fig. 6" in render(results)


class TestWhatIfCalls:
    def test_measured_close_to_formulas(self):
        from repro.experiments.whatif_calls import (
            WhatIfCallsConfig,
            render,
            run,
        )

        rows = run(
            WhatIfCallsConfig(
                queries_per_table_values=(20,), candidate_set_size=100
            )
        )
        row = rows[0]
        # The paper's 2·Q·q̄ estimate describes the naive engine, which
        # prices every candidate; the lazy default prices a subset of
        # the same moves and picks the same steps.
        assert row.h6_predicted <= row.naive_calls <= 2 * row.h6_predicted
        assert row.h6_calls <= row.naive_calls
        assert row.h6_total_cost == row.naive_total_cost
        # The paper itself notes the CoPhy formula is a lower-ball
        # estimate: H1-M candidates lead with over-proportionally hot
        # attributes, so more of them qualify per query.  Order of
        # magnitude is the claim.
        assert row.cophy_calls <= 10 * row.cophy_predicted
        assert "What-if" in render(rows)

    def test_h6_calls_beat_cophy_for_large_candidate_sets(self):
        from repro.experiments.whatif_calls import (
            WhatIfCallsConfig,
            run,
        )

        rows = run(
            WhatIfCallsConfig(
                queries_per_table_values=(20,),
                candidate_set_size=4_000,
            )
        )
        row = rows[0]
        assert row.h6_calls < row.cophy_calls
