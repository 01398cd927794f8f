"""What-if call accounting: H6 vs CoPhy (Section III-A's analysis).

The paper argues that H6 needs roughly ``2 · Q · q̄`` what-if optimizer
calls — more than half of them in the very first construction step — while
CoPhy must price its whole cost table up front, roughly
``Q · q̄ · |I| / N`` calls, growing linearly in the candidate-set size.
This experiment measures both through the shared caching facade across
workload sizes and candidate-set sizes and reports the measured counts
next to the paper's formulas.

H6 is counted twice, once per evaluation engine; both pick identical
steps.  The naive engine (``EvaluationConfig(naive=True)``) prices every
candidate move eagerly, as the paper's analysis assumes, and its count
is the one the estimate describes: 1.6–1.8× ``2 · Q · q̄`` on the
default sizes and Q = 200, with seeding plus the first step making
33–38 % of it rather than more than half.  The default lazy engine
prices a move only while its admissible bound can still win, so its
count stays below the naive one and does not grow linearly in Q.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.core.evaluation import EvaluationConfig
from repro.core.extend import ExtendAlgorithm
from repro.experiments.common import analytic_optimizer
from repro.experiments.reporting import render_table
from repro.indexes.candidates import candidates_h1m
from repro.indexes.memory import relative_budget
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.stats import WorkloadStatistics

__all__ = ["WhatIfCallsConfig", "run", "main"]


@dataclass(frozen=True)
class WhatIfCallsConfig:
    """Parameters of the call-accounting experiment."""

    queries_per_table_values: tuple[int, ...] = (50, 100, 200, 500)
    candidate_set_size: int = 1_000
    budget_share: float = 0.2
    seed: int = 1909


@dataclass(frozen=True)
class WhatIfCallsRow:
    """Measured and predicted call counts for one problem size."""

    queries: int
    q_bar: float
    h6_calls: int
    """Backend calls of H6 with the default (lazy) evaluation engine."""
    naive_calls: int
    """Backend calls of H6 with the naive evaluation engine."""
    h6_predicted: float
    cophy_calls: int
    cophy_predicted: float
    h6_total_cost: float
    naive_total_cost: float
    """Final workload costs of the two H6 runs (the engines pick the
    same steps, so these are equal)."""


def run(config: WhatIfCallsConfig | None = None) -> list[WhatIfCallsRow]:
    """Measure call counts across problem sizes."""
    if config is None:
        config = WhatIfCallsConfig()
    rows: list[WhatIfCallsRow] = []
    for queries_per_table in config.queries_per_table_values:
        workload = generate_workload(
            GeneratorConfig(
                queries_per_table=queries_per_table, seed=config.seed
            )
        )
        statistics = WorkloadStatistics(workload)
        q_bar = statistics.average_attributes_per_query
        budget = relative_budget(workload.schema, config.budget_share)

        h6_optimizer = analytic_optimizer(workload)
        h6 = ExtendAlgorithm(h6_optimizer).select(workload, budget)
        naive_optimizer = analytic_optimizer(workload)
        naive = ExtendAlgorithm(
            naive_optimizer, evaluation=EvaluationConfig(naive=True)
        ).select(workload, budget)

        cophy_optimizer = analytic_optimizer(workload)
        candidates = candidates_h1m(
            statistics, config.candidate_set_size, 4
        )
        cophy_optimizer.cost_table(workload, candidates)
        cophy_calls = cophy_optimizer.calls

        n = workload.schema.attribute_count
        rows.append(
            WhatIfCallsRow(
                queries=workload.query_count,
                q_bar=q_bar,
                h6_calls=h6_optimizer.calls,
                naive_calls=naive_optimizer.calls,
                h6_predicted=2 * workload.query_count * q_bar,
                cophy_calls=cophy_calls,
                cophy_predicted=(
                    workload.query_count * q_bar * len(candidates) / n
                ),
                h6_total_cost=h6.total_cost,
                naive_total_cost=naive.total_cost,
            )
        )
    return rows


def render(rows: list[WhatIfCallsRow]) -> str:
    """Render measured vs predicted call counts."""
    return render_table(
        [
            "Q",
            "q̄",
            "H6 calls",
            "H6 naive",
            "≈2·Q·q̄",
            "CoPhy calls",
            "≈Q·q̄·|I|/N",
        ],
        [
            (
                row.queries,
                round(row.q_bar, 2),
                row.h6_calls,
                row.naive_calls,
                round(row.h6_predicted),
                row.cophy_calls,
                round(row.cophy_predicted),
            )
            for row in rows
        ],
        title="What-if optimizer calls: measured vs paper formulas",
    )


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``python -m repro.experiments.whatif_calls``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args(argv)
    print(render(run()))


if __name__ == "__main__":
    main()
