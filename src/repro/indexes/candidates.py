"""Index candidate generation.

Two-step selection approaches (CoPhy and the rule-based heuristics) need a
candidate set ``I`` up front.  This module provides:

* :func:`syntactically_relevant_candidates` — the exhaustive set
  ``I_max``: for every query, every non-empty subset of its attributes up
  to a maximum width, in the canonical (most-selective-first) permutation,
  deduplicated across queries (see DESIGN.md §3.5 for why this matches the
  paper's reported ``|I_max|`` magnitudes),
* :func:`all_permutation_candidates` — the full permutation enumeration
  (exponentially larger; exposed for small-instance optimality tests),
* the candidate heuristics **H1-M**, **H2-M**, **H3-M** of Example 1 (iv),
  which rank attribute combinations by co-access frequency, combined
  selectivity, and their ratio, respectively,
* :func:`single_attribute_candidates` — one index per accessed attribute.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Callable, Sequence

from repro.exceptions import IndexDefinitionError
from repro.indexes.index import Index, canonical_index, canonical_order_key
from repro.workload.query import Workload
from repro.workload.stats import WorkloadStatistics

__all__ = [
    "check_candidate_width",
    "syntactically_relevant_candidates",
    "all_permutation_candidates",
    "single_attribute_candidates",
    "candidates_h1m",
    "candidates_h2m",
    "candidates_h3m",
    "CANDIDATE_HEURISTICS",
]

DEFAULT_MAX_WIDTH = 4


def check_candidate_width(width: object) -> None:
    """Reject a ``candidate_width`` request argument that is not a
    positive integer, before any candidate is generated or priced."""
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise IndexDefinitionError(
            f"candidate_width must be a positive integer, got {width!r}"
        )


def _deduplicate(candidates: Sequence[Index]) -> list[Index]:
    """Stable deduplication preserving first-seen order."""
    seen: set[Index] = set()
    unique: list[Index] = []
    for candidate in candidates:
        if candidate not in seen:
            seen.add(candidate)
            unique.append(candidate)
    return unique


def syntactically_relevant_candidates(
    workload: Workload, max_width: int = DEFAULT_MAX_WIDTH
) -> list[Index]:
    """The exhaustive candidate set ``I_max``.

    For every query ``q_j`` and every non-empty attribute subset
    ``S ⊆ q_j`` with ``|S| <= max_width``, emit the canonical permutation
    of ``S`` (most selective attribute first).  Duplicates across queries
    are removed.  The result is deterministic: candidates are sorted by
    (table, attributes).

    Each query's attributes are sorted into canonical order once; the
    canonical order is a strict total order, so every subset
    ``combinations`` takes from that order is already canonical.  The
    attribute tuples are deduplicated per table and one :class:`Index`
    is built per unique tuple — without :meth:`Index.of`'s validation,
    which :class:`Workload` already guarantees (every query's attributes
    belong to its table).
    """
    if max_width < 1:
        raise IndexDefinitionError(
            f"max_width must be >= 1, got {max_width}"
        )
    key = canonical_order_key(workload.schema)
    subsets: dict[str, set[tuple[int, ...]]] = {}
    for query in workload:
        ordered = sorted(query.attributes, key=key)
        table_subsets = subsets.setdefault(query.table_name, set())
        for width in range(1, min(max_width, len(ordered)) + 1):
            table_subsets.update(combinations(ordered, width))
    return [
        Index(table_name, attributes)
        for table_name in sorted(subsets)
        for attributes in sorted(subsets[table_name])
    ]


def all_permutation_candidates(
    workload: Workload, max_width: int = DEFAULT_MAX_WIDTH
) -> list[Index]:
    """Every permutation of every query-attribute subset up to a width.

    Exponentially larger than :func:`syntactically_relevant_candidates`;
    only feasible for small instances.  Used by tests to confirm that the
    canonical permutation is (near-)best and by optimality studies.
    """
    if max_width < 1:
        raise IndexDefinitionError(
            f"max_width must be >= 1, got {max_width}"
        )
    schema = workload.schema
    candidates: set[Index] = set()
    for query in workload:
        sorted_attributes = sorted(query.attributes)
        for width in range(1, min(max_width, len(sorted_attributes)) + 1):
            for subset in combinations(sorted_attributes, width):
                for ordering in permutations(subset):
                    candidates.add(Index.of(schema, ordering))
    return sorted(
        candidates, key=lambda index: (index.table_name, index.attributes)
    )


def single_attribute_candidates(workload: Workload) -> list[Index]:
    """One single-attribute index per attribute accessed by the workload."""
    schema = workload.schema
    accessed: set[int] = set()
    for query in workload:
        accessed.update(query.attributes)
    return [
        Index.of(schema, (attribute_id,))
        for attribute_id in sorted(accessed)
    ]


# ----------------------------------------------------------------------
# Candidate heuristics of Example 1 (iv)
# ----------------------------------------------------------------------


def _ranked_candidates(
    statistics: WorkloadStatistics,
    total: int,
    max_width: int,
    key: Callable[[frozenset[int]], tuple],
) -> list[Index]:
    """Shared skeleton of H1-M / H2-M / H3-M.

    For each width ``m = 1..max_width``, rank the attribute combinations
    co-accessed by the workload with ``key`` (ascending) and keep the best
    ``h = total / max_width``; return canonical-permutation indexes.

    If a width has fewer co-accessed combinations than ``h``, the heuristic
    simply yields fewer candidates for that width (the paper's generator
    behaves the same for narrow workloads).
    """
    if total < max_width:
        raise IndexDefinitionError(
            f"candidate budget {total} below one per width "
            f"(max_width={max_width})"
        )
    schema = statistics.workload.schema
    per_width = total // max_width
    chosen: list[Index] = []
    for width in range(1, max_width + 1):
        ranked = sorted(
            statistics.accessed_combinations(width),
            key=key,
        )
        for combination in ranked[:per_width]:
            chosen.append(canonical_index(schema, combination))
    return _deduplicate(chosen)


def candidates_h1m(
    statistics: WorkloadStatistics,
    total: int,
    max_width: int = DEFAULT_MAX_WIDTH,
) -> list[Index]:
    """H1-M: most frequently co-accessed combinations per width.

    Ranks combinations by descending frequency-weighted occurrence count
    ``Σ_{j: {i_1..i_m} ⊆ q_j} b_j`` (ties broken deterministically).
    """
    occurrence_tables = {
        width: statistics.combination_occurrences(width)
        for width in range(1, max_width + 1)
    }

    def key(combination: frozenset[int]) -> tuple:
        table = occurrence_tables[len(combination)]
        return (-table[combination], tuple(sorted(combination)))

    return _ranked_candidates(statistics, total, max_width, key)


def candidates_h2m(
    statistics: WorkloadStatistics,
    total: int,
    max_width: int = DEFAULT_MAX_WIDTH,
) -> list[Index]:
    """H2-M: smallest combined selectivity ``Π s_i`` per width."""

    def key(combination: frozenset[int]) -> tuple:
        return (
            statistics.combined_selectivity(combination),
            tuple(sorted(combination)),
        )

    return _ranked_candidates(statistics, total, max_width, key)


def candidates_h3m(
    statistics: WorkloadStatistics,
    total: int,
    max_width: int = DEFAULT_MAX_WIDTH,
) -> list[Index]:
    """H3-M: best ratio of combined selectivity to occurrence count.

    Smaller is better: highly selective combinations that are accessed
    often rank first.
    """
    occurrence_tables = {
        width: statistics.combination_occurrences(width)
        for width in range(1, max_width + 1)
    }

    def key(combination: frozenset[int]) -> tuple:
        occurrences = occurrence_tables[len(combination)][combination]
        return (
            statistics.combined_selectivity(combination) / occurrences,
            tuple(sorted(combination)),
        )

    return _ranked_candidates(statistics, total, max_width, key)


CANDIDATE_HEURISTICS: dict[
    str, Callable[[WorkloadStatistics, int, int], list[Index]]
] = {
    "H1-M": candidates_h1m,
    "H2-M": candidates_h2m,
    "H3-M": candidates_h3m,
}
"""Name → candidate heuristic, as used by the experiment harnesses."""
