"""Fig. 4 — enterprise (ERP) workload: H6 vs CoPhy with H1-M candidates.

Reproduces the paper's Fig. 4: workload cost (calculated memory traffic)
against relative budgets ``w ∈ [0, 0.1]`` on the enterprise workload
(paper: 500 tables, ``N = 4 204`` attributes, ``Q = 2 271`` templates
from a productive Fortune-500 ERP system; here: the synthetic stand-in of
:mod:`repro.workload.enterprise` reproducing its published aggregate
statistics — see DESIGN.md §4).  CoPhy runs with H1-M candidate sets of
100 and 1 000 candidates and with the exhaustive set.

The reproduced claims: H6 clearly dominates CoPhy with limited candidate
sets across the budget range, and H6's solve time stays around a second
while CoPhy with all candidates takes far longer.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.experiments.common import (
    BudgetSweepSeries,
    analytic_optimizer,
    budget_grid,
    sweep_cophy,
    sweep_extend,
)
from repro.experiments.reporting import render_series
from repro.indexes.candidates import (
    candidates_h1m,
    syntactically_relevant_candidates,
)
from repro.telemetry import Telemetry
from repro.workload.enterprise import (
    EnterpriseConfig,
    generate_enterprise_workload,
)
from repro.workload.stats import WorkloadStatistics

__all__ = ["Fig4Config", "run", "main"]


@dataclass(frozen=True)
class Fig4Config:
    """Parameters of the Fig. 4 reproduction."""

    workload_scale: float = 1.0
    candidate_set_sizes: tuple[int, ...] = (100, 1_000)
    budget_low: float = 0.0
    budget_high: float = 0.1
    budget_steps: int = 6
    mip_gap: float = 0.05
    time_limit: float = 300.0
    include_imax: bool = True
    seed: int = 500


def run(
    config: Fig4Config | None = None,
    *,
    telemetry: Telemetry | None = None,
    verbose: bool = False,
) -> list[BudgetSweepSeries]:
    """Execute the Fig. 4 sweep and return all series.

    One telemetry session spans the whole experiment so every sweep's
    spans and metrics land in the same place; pass your own session to
    attach sinks (e.g. a JSON-lines trace of the full run).
    """
    if config is None:
        config = Fig4Config()
    telemetry = telemetry or Telemetry()
    workload = generate_enterprise_workload(
        EnterpriseConfig(scale=config.workload_scale, seed=config.seed)
    )
    statistics = WorkloadStatistics(workload)
    optimizer = analytic_optimizer(workload)
    budgets = budget_grid(
        config.budget_low, config.budget_high, config.budget_steps
    )

    series = [
        sweep_extend(
            workload,
            optimizer,
            budgets,
            telemetry=telemetry,
            verbose=verbose,
        )
    ]
    for size in config.candidate_set_sizes:
        candidates = candidates_h1m(statistics, size, 4)
        series.append(
            sweep_cophy(
                workload,
                optimizer,
                budgets,
                candidates,
                name=f"CoPhy/H1-M({size})",
                mip_gap=config.mip_gap,
                time_limit=config.time_limit,
                telemetry=telemetry,
                verbose=verbose,
            )
        )
    if config.include_imax:
        exhaustive = syntactically_relevant_candidates(workload)
        series.append(
            sweep_cophy(
                workload,
                optimizer,
                budgets,
                exhaustive,
                name=f"CoPhy/I_max({len(exhaustive)})",
                mip_gap=config.mip_gap,
                time_limit=config.time_limit,
                telemetry=telemetry,
                verbose=verbose,
            )
        )
    return series


def render(series: list[BudgetSweepSeries]) -> str:
    """Render all series in figure order, plus runtime notes."""
    blocks = [
        "Fig. 4 — ERP workload: cost vs A(w), w in [0, 0.1]",
    ]
    for entry in series:
        blocks.append(render_series(entry.name, entry.points))
        blocks.append(
            f"  total solve time: {entry.total_runtime:.2f}s, "
            f"what-if calls: {entry.whatif_calls}"
        )
        if entry.notes:
            blocks.extend(f"  note: {note}" for note in entry.notes)
    return "\n".join(blocks)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``python -m repro.experiments.fig4``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale in (0, 1]; 1.0 = paper scale "
        "(500 tables / 4 204 attributes / 2 271 templates)",
    )
    parser.add_argument("--no-imax", action="store_true")
    parser.add_argument("--time-limit", type=float, default=300.0)
    arguments = parser.parse_args(argv)
    config = Fig4Config(
        workload_scale=arguments.scale,
        include_imax=not arguments.no_imax,
        time_limit=arguments.time_limit,
    )
    print(render(run(config, verbose=True)))


if __name__ == "__main__":
    main()
