"""Fig. 3 — frontier comparison: effect of the candidate-set *size*.

Reproduces the paper's Fig. 3: the same workload and budget range as
Fig. 2 (``N = 500``, ``Q = 1 000``, ``w ∈ [0, 0.4]``), but CoPhy's
candidate sets all come from H1-M with different sizes:
``|I| ∈ {100, 1 000, |I_max|}``.  The reproduced claim: the smaller the
candidate set, the likelier important indexes are missing and the worse
CoPhy's frontier, while H6 needs no candidate set at all and tracks the
exhaustive reference.
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
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.stats import WorkloadStatistics

__all__ = ["Fig3Config", "run", "main"]


@dataclass(frozen=True)
class Fig3Config:
    """Parameters of the Fig. 3 reproduction."""

    queries_per_table: int = 100
    attributes_per_table: int = 50
    candidate_set_sizes: tuple[int, ...] = (100, 1_000)
    budget_low: float = 0.0
    budget_high: float = 0.4
    budget_steps: int = 9
    mip_gap: float = 0.05
    time_limit: float = 120.0
    include_imax: bool = True
    seed: int = 1909


def run(
    config: Fig3Config | None = None, *, verbose: bool = False
) -> list[BudgetSweepSeries]:
    """Execute the Fig. 3 sweep and return all series."""
    if config is None:
        config = Fig3Config()
    workload = generate_workload(
        GeneratorConfig(
            attributes_per_table=config.attributes_per_table,
            queries_per_table=config.queries_per_table,
            seed=config.seed,
        )
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
                verbose=verbose,
            )
        )
    return series


def render(series: list[BudgetSweepSeries]) -> str:
    """Render all series in figure order."""
    blocks = [
        "Fig. 3 — workload cost vs A(w) for different candidate-set sizes",
    ]
    for entry in series:
        blocks.append(render_series(entry.name, entry.points))
        if entry.notes:
            blocks.extend(f"  note: {note}" for note in entry.notes)
    return "\n".join(blocks)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``python -m repro.experiments.fig3``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries-per-table", type=int, default=100)
    parser.add_argument("--no-imax", action="store_true")
    parser.add_argument("--time-limit", type=float, default=120.0)
    arguments = parser.parse_args(argv)
    config = Fig3Config(
        queries_per_table=arguments.queries_per_table,
        include_imax=not arguments.no_imax,
        time_limit=arguments.time_limit,
    )
    print(render(run(config, verbose=True)))


if __name__ == "__main__":
    main()
