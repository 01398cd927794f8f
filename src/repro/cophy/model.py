"""CoPhy's binary integer program (paper Section II-B, Eqs. 5–8).

Given a candidate set ``I`` and per-(query, index) costs ``f_j(k)``, the
program selects indexes ``x_k`` and per-query index assignments ``z_jk``::

    minimize    Σ_j Σ_{k ∈ I_j ∪ 0}  b_j · f_j(k) · z_jk          (5)
    subject to  Σ_{k ∈ I_j ∪ 0} z_jk  = 1        ∀ j              (6)
                z_jk ≤ x_k                       ∀ j, k ∈ I_j     (7)
                Σ_{i ∈ I} p_i · x_i  ≤ A                          (8)

``I_j ⊆ I`` holds the candidates applicable to query ``j`` (their leading
attribute occurs in ``q_j``).  As in the paper's complexity analysis, the
variable/constraint counts are ``|I| + Σ_j (|I_j|+1)`` and
``Q + Σ_j |I_j| + 1``; :func:`lp_size` reports them without building the
matrices (used for Fig. 6).

The builder additionally drops candidates that help no query (their
``f_j(k)`` never beats ``f_j(0)``) — a pure presolve step that cannot
change the optimum but keeps the matrices small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cost.whatif import Applicability, WhatIfOptimizer, WriteLoad
from repro.exceptions import SolverError
from repro.indexes.index import Index
from repro.indexes.memory import index_memory
from repro.workload.query import Workload

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["CoPhyProblem", "LPSize", "build_problem", "lp_size"]


@dataclass(frozen=True)
class LPSize:
    """Variable and constraint counts of the CoPhy BIP."""

    variables: int
    constraints: int
    candidates: int
    queries: int


@dataclass
class CoPhyProblem:
    """A fully materialized CoPhy BIP ready for the solver.

    The variable vector is ``[x_0..x_{|I|-1}, z_0..z_{nz-1}]`` where each
    ``z`` column corresponds to one ``(query, option)`` pair and option
    ``None`` denotes "no index" (``f_j(0)``).
    """

    workload: Workload
    candidates: tuple[Index, ...]
    objective: np.ndarray
    constraint_matrix: sparse.csr_matrix
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    z_options: list[tuple[int, Index | None]]
    budget: float

    @property
    def size(self) -> LPSize:
        """Variable/constraint counts of this instance."""
        return LPSize(
            variables=self.constraint_matrix.shape[1],
            constraints=self.constraint_matrix.shape[0],
            candidates=len(self.candidates),
            queries=self.workload.query_count,
        )

    def selection_from(self, solution: np.ndarray) -> list[Index]:
        """Extract the selected indexes from a solver variable vector."""
        return [
            index
            for position, index in enumerate(self.candidates)
            if solution[position] > 0.5
        ]

    def assignment_cost(self, solution: np.ndarray) -> float:
        """Objective value of a solver variable vector."""
        return float(np.dot(self.objective, solution))


def build_problem(
    workload: Workload,
    candidates: list[Index],
    budget: float,
    optimizer: WhatIfOptimizer,
) -> CoPhyProblem:
    """Materialize the BIP (5)–(8) for a candidate set and budget.

    Fetches all required cost coefficients ``f_j(k)`` through the what-if
    facade — this is the up-front evaluation of the full cost table that
    makes two-step approaches expensive (Section III-A).
    """
    if budget < 0:
        raise SolverError(f"budget must be >= 0, got {budget}")
    if not candidates:
        raise SolverError("CoPhy needs a non-empty candidate set")
    schema = workload.schema
    queries = workload.queries

    # Cost table and applicability (with the helps-nobody presolve).
    # Candidates are bucketed by (table, leading attribute) so each query
    # only inspects candidates that could apply to it (I_j), not all of I.
    by_leading: dict[tuple[str, int], list[Index]] = {}
    for index in candidates:
        by_leading.setdefault(
            (index.table_name, index.leading_attribute), []
        ).append(index)

    sequential = optimizer.sequential_costs(queries).tolist()
    if getattr(optimizer, "supports_batch", False):
        # Warm the facade in bounded pair batches (the bucketed loop
        # below prices exactly the applicable pairs, so it then runs on
        # pure cache hits with identical accounting).
        for _ in Applicability(queries).price(optimizer, candidates):
            pass
    applicable: dict[int, list[tuple[Index, float]]] = {
        position: [] for position in range(len(queries))
    }
    useful: set[Index] = set()
    for position, query in enumerate(queries):
        for attribute_id in query.attributes:
            for index in by_leading.get(
                (query.table_name, attribute_id), ()
            ):
                cost = optimizer.index_cost(query, index)
                if cost < sequential[position]:
                    applicable[position].append((index, cost))
                    useful.add(index)
    kept = [index for index in candidates if index in useful]
    candidate_position = {index: i for i, index in enumerate(kept)}
    x_count = len(kept)

    # Write queries charge maintenance on every selected index they
    # touch: a linear ``Σ_j b_j · m_jk · x_k`` objective contribution.
    writes = WriteLoad(queries)
    objective_x = [0.0] * x_count
    for index, position in candidate_position.items():
        objective_x[position] = writes.load(optimizer, index)

    # z variables: one per (query, option); option None = no index.
    z_options: list[tuple[int, Index | None]] = []
    objective_z: list[float] = []
    for position, query in enumerate(queries):
        z_options.append((position, None))
        objective_z.append(query.frequency * sequential[position])
        for index, cost in applicable[position]:
            z_options.append((position, index))
            objective_z.append(query.frequency * cost)
    z_count = len(z_options)

    objective = np.concatenate(
        [
            np.array(objective_x, dtype=np.float64),
            np.array(objective_z, dtype=np.float64),
        ]
    )

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    lower: list[float] = []
    upper: list[float] = []
    constraint_index = 0

    # (6): Σ_k z_jk = 1 per query.
    for position in range(len(queries)):
        lower.append(1.0)
        upper.append(1.0)
    for z_index, (position, _) in enumerate(z_options):
        rows.append(position)
        cols.append(x_count + z_index)
        data.append(1.0)
    constraint_index = len(queries)

    # (7): z_jk - x_k <= 0 per applicable (query, index).
    for z_index, (position, index) in enumerate(z_options):
        if index is None:
            continue
        rows.append(constraint_index)
        cols.append(x_count + z_index)
        data.append(1.0)
        rows.append(constraint_index)
        cols.append(candidate_position[index])
        data.append(-1.0)
        lower.append(-np.inf)
        upper.append(0.0)
        constraint_index += 1

    # (8): Σ p_i x_i <= A.
    for index, position in candidate_position.items():
        rows.append(constraint_index)
        cols.append(position)
        data.append(float(index_memory(schema, index)))
    lower.append(0.0)
    upper.append(float(budget))
    constraint_index += 1

    # Imported here: scipy takes longer to import than a whole warm
    # Extend request, and only CoPhy needs it.
    from scipy import sparse

    matrix = sparse.csr_matrix(
        (data, (rows, cols)),
        shape=(constraint_index, x_count + z_count),
    )
    return CoPhyProblem(
        workload=workload,
        candidates=tuple(kept),
        objective=objective,
        constraint_matrix=matrix,
        lower_bounds=np.array(lower, dtype=np.float64),
        upper_bounds=np.array(upper, dtype=np.float64),
        z_options=z_options,
        budget=budget,
    )


def lp_size(workload: Workload, candidates: list[Index]) -> LPSize:
    """Variable/constraint counts without building the problem (Fig. 6).

    Uses the paper's applicability rule (leading attribute occurs in the
    query) and counts ``|I| + Σ_j (|I_j|+1)`` variables and
    ``Q + Σ_j |I_j| + 1`` constraints — no costs are fetched, so this is
    cheap even for large candidate sets.
    """
    by_leading: dict[tuple[str, int], int] = {}
    for index in candidates:
        key = (index.table_name, index.leading_attribute)
        by_leading[key] = by_leading.get(key, 0) + 1
    applicable_total = 0
    for query in workload:
        for attribute_id in query.attributes:
            applicable_total += by_leading.get(
                (query.table_name, attribute_id), 0
            )
    variables = len(candidates) + workload.query_count + applicable_total
    constraints = workload.query_count + applicable_total + 1
    return LPSize(
        variables=variables,
        constraints=constraints,
        candidates=len(candidates),
        queries=workload.query_count,
    )
