"""Fig. 2 — frontier comparison: H6 vs CoPhy with candidate heuristics.

Reproduces the paper's Fig. 2: scan performance (total workload cost)
against relative memory budget ``A(w)``, ``w ∈ [0, 0.4]``, for

* our strategy **H6** (one Extend run per budget),
* **CoPhy** with candidate sets of ``|I| = 500`` chosen by H1-M, H2-M,
  and H3-M,
* **CoPhy** with the exhaustive candidate set ``I_max`` (the optimal
  reference — may DNF at large scale, recorded as ``inf``).

Workload: Appendix C with ``N = 500`` attributes and ``Q = 1 000``
queries (``T = 10`` tables, ``N_t = 50``, ``Q_t = 100``).  The reproduced
claims: H6 tracks CoPhy-``I_max`` closely at *every* budget, while
CoPhy's quality with reduced candidate sets depends strongly on the
heuristic (H1-M best, H2-M/H3-M markedly worse).
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
    CANDIDATE_HEURISTICS,
    syntactically_relevant_candidates,
)
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.stats import WorkloadStatistics

__all__ = ["Fig2Config", "run", "main"]


@dataclass(frozen=True)
class Fig2Config:
    """Parameters of the Fig. 2 reproduction."""

    queries_per_table: int = 100
    attributes_per_table: int = 50
    candidate_set_size: int = 500
    budget_low: float = 0.0
    budget_high: float = 0.4
    budget_steps: int = 9
    mip_gap: float = 0.05
    time_limit: float = 120.0
    include_imax: bool = True
    seed: int = 1909


def run(
    config: Fig2Config | None = None, *, verbose: bool = False
) -> list[BudgetSweepSeries]:
    """Execute the Fig. 2 sweep and return all series."""
    if config is None:
        config = Fig2Config()
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
    for heuristic_name, heuristic in CANDIDATE_HEURISTICS.items():
        candidates = heuristic(statistics, config.candidate_set_size, 4)
        series.append(
            sweep_cophy(
                workload,
                optimizer,
                budgets,
                candidates,
                name=f"CoPhy/{heuristic_name}({config.candidate_set_size})",
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
        "Fig. 2 — workload cost vs relative memory budget A(w)",
    ]
    for entry in series:
        blocks.append(render_series(entry.name, entry.points))
        if entry.notes:
            blocks.extend(f"  note: {note}" for note in entry.notes)
    return "\n".join(blocks)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``python -m repro.experiments.fig2``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--queries-per-table",
        type=int,
        default=100,
        help="Q_t per table (paper: 100 → Q = 1 000)",
    )
    parser.add_argument(
        "--no-imax",
        action="store_true",
        help="skip the exhaustive-candidate CoPhy reference",
    )
    parser.add_argument("--time-limit", type=float, default=120.0)
    arguments = parser.parse_args(argv)
    config = Fig2Config(
        queries_per_table=arguments.queries_per_table,
        include_imax=not arguments.no_imax,
        time_limit=arguments.time_limit,
    )
    print(render(run(config, verbose=True)))


if __name__ == "__main__":
    main()
