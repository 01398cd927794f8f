"""Performance-based heuristics H4 and H5 (Definition 1).

Both rank candidates by *individually measured* performance — each
candidate's workload benefit is estimated in isolation via what-if calls,
ignoring the presence of other selected indexes (the lack of explicit
index-interaction handling the paper criticizes):

* **H4** (cf. Kimura et al. / SQL Server): greedy by absolute benefit
  ``Σ_j b_j · max(0, f_j(0) − f_j(k))``, optionally after skyline
  pruning of dominated candidates.
* **H5** (cf. Valentin et al. / DB2 starting solution): greedy by
  benefit-per-size ratio.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.evaluation import price_columns
from repro.heuristics.base import RankingHeuristic
from repro.heuristics.skyline import skyline_filter
from repro.indexes.index import Index
from repro.indexes.memory import index_memory
from repro.workload.query import Workload

__all__ = ["PerformanceHeuristic", "BenefitPerSizeHeuristic"]


def _standalone_benefit(
    heuristic: RankingHeuristic, workload: Workload, index: Index
) -> float:
    """Workload benefit of ``index`` measured in isolation.

    Read queries contribute their cost reduction; write queries subtract
    the maintenance the index would impose on them.
    """
    optimizer = heuristic.optimizer
    benefit = 0.0
    for query in workload:
        if index.is_applicable_to(query):
            sequential = optimizer.sequential_cost(query)
            benefit += query.frequency * max(
                0.0, sequential - optimizer.index_cost(query, index)
            )
        if not query.is_select:
            benefit -= query.frequency * optimizer.maintenance_cost(
                query, index
            )
    return benefit


class PerformanceHeuristic(RankingHeuristic):
    """H4: greedy by individually measured benefit.

    Parameters
    ----------
    use_skyline:
        Apply the dominated-candidate filter first ("(H4) with the
        skyline method" in Fig. 5).
    """

    def __init__(
        self, optimizer, *, use_skyline: bool = False, **kwargs
    ) -> None:
        super().__init__(optimizer, **kwargs)
        self._use_skyline = use_skyline
        self.name = "H4+skyline" if use_skyline else "H4"

    def rank(
        self, workload: Workload, candidates: Sequence[Index]
    ) -> list[Index]:
        pool = list(candidates)
        if getattr(self.optimizer, "supports_batch", False):
            # Warm the exact applicable pairs the ranking loop prices
            # in batched backend calls.
            price_columns(self.optimizer, workload.queries, pool)
        if self._use_skyline:
            pool = skyline_filter(workload, pool, self.optimizer)
        return sorted(
            pool,
            key=lambda index: (
                -_standalone_benefit(self, workload, index),
                index.width,
                index.table_name,
                index.attributes,
            ),
        )


class BenefitPerSizeHeuristic(RankingHeuristic):
    """H5: greedy by individually measured benefit-per-size ratio.

    This is the starting solution of the DB2 advisor; the paper uses it
    as a lower bound for Valentin et al.'s full approach (which then
    shuffles randomly).
    """

    name = "H5"

    def rank(
        self, workload: Workload, candidates: Sequence[Index]
    ) -> list[Index]:
        schema = workload.schema
        if getattr(self.optimizer, "supports_batch", False):
            price_columns(self.optimizer, workload.queries, candidates)
        return sorted(
            candidates,
            key=lambda index: (
                -(
                    _standalone_benefit(self, workload, index)
                    / index_memory(schema, index)
                ),
                index.width,
                index.table_name,
                index.attributes,
            ),
        )
