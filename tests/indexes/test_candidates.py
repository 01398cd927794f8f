"""Tests for candidate generation (I_max and H1-M/H2-M/H3-M)."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import IndexDefinitionError
from repro.indexes.candidates import (
    all_permutation_candidates,
    candidates_h1m,
    candidates_h2m,
    candidates_h3m,
    single_attribute_candidates,
    syntactically_relevant_candidates,
)
from repro.indexes.index import canonical_index
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.query import Workload
from repro.workload.schema import Schema
from repro.workload.stats import WorkloadStatistics


def per_subset_candidates(workload, max_width):
    """The reference ``I_max``: every subset of every query, each built
    through :func:`canonical_index` (sort, validate) and deduplicated as
    indexes."""
    schema = workload.schema
    candidates = set()
    for query in workload:
        attributes = sorted(query.attributes)
        for width in range(1, min(max_width, len(attributes)) + 1):
            for subset in combinations(attributes, width):
                candidates.add(canonical_index(schema, subset))
    return sorted(
        candidates, key=lambda index: (index.table_name, index.attributes)
    )


@st.composite
def workloads(draw):
    """1–3 tables whose names sort against their attribute ids, with
    distinct counts drawn from a few values so the id tie-break
    decides the canonical order often, and queries both narrower and
    wider than any width the test asks for."""
    names = ["Z", "M", "A"][: draw(st.integers(min_value=1, max_value=3))]
    tables = {
        name: (
            1_000,
            [
                (f"{name}{position}", draw(st.sampled_from([1, 7, 50])), 4)
                for position in range(draw(st.integers(1, 7)))
            ],
        )
        for name in names
    }
    schema = Schema.build(tables)
    specs = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        table = draw(st.sampled_from(names))
        ids = [attribute.id for attribute in schema.attributes_of_table(table)]
        attributes = draw(st.sets(st.sampled_from(ids), min_size=1))
        specs.append((table, attributes, 1.0))
    return Workload.from_attribute_sets(schema, specs)


class TestSyntacticallyRelevant:
    def test_covers_all_subsets_up_to_width(self, tiny_workload):
        candidates = syntactically_relevant_candidates(tiny_workload, 4)
        candidate_sets = {index.attribute_set for index in candidates}
        for query in tiny_workload:
            attributes = sorted(query.attributes)
            for width in range(1, min(4, len(attributes)) + 1):
                for subset in combinations(attributes, width):
                    assert frozenset(subset) in candidate_sets

    def test_one_permutation_per_subset(self, tiny_workload):
        candidates = syntactically_relevant_candidates(tiny_workload)
        sets = [index.attribute_set for index in candidates]
        assert len(sets) == len(set(sets))

    def test_canonical_ordering(self, tiny_workload):
        schema = tiny_workload.schema
        for index in syntactically_relevant_candidates(tiny_workload):
            assert (
                index
                == canonical_index(schema, index.attribute_set)
            )

    def test_width_cap(self, tiny_workload):
        candidates = syntactically_relevant_candidates(tiny_workload, 2)
        assert max(index.width for index in candidates) <= 2

    def test_deterministic_order(self, tiny_workload):
        first = syntactically_relevant_candidates(tiny_workload)
        second = syntactically_relevant_candidates(tiny_workload)
        assert first == second

    def test_rejects_zero_width(self, tiny_workload):
        with pytest.raises(IndexDefinitionError, match="max_width"):
            syntactically_relevant_candidates(tiny_workload, 0)

    @settings(max_examples=200, deadline=None)
    @given(workload=workloads(), max_width=st.integers(1, 5))
    def test_matches_per_subset_construction(self, workload, max_width):
        expected = per_subset_candidates(workload, max_width)
        actual = syntactically_relevant_candidates(workload, max_width)
        # Index equality compares table_name and attributes.
        assert actual == expected

    def test_fig2_instance_size(self):
        """|I_max| of the Fig. 2 instance (Appendix C, Q = 1 000) at
        width 4; the enterprise instance's 10 569 is pinned in
        ``tests/workload/test_enterprise.py``."""
        workload = generate_workload(
            GeneratorConfig(queries_per_table=100, seed=1909)
        )
        candidates = syntactically_relevant_candidates(workload, 4)
        assert len(candidates) == 46_359
        assert candidates == per_subset_candidates(workload, 4)


class TestAllPermutations:
    def test_superset_of_canonical(self, tiny_workload):
        canonical = set(syntactically_relevant_candidates(tiny_workload))
        full = set(all_permutation_candidates(tiny_workload))
        assert canonical <= full

    def test_permutation_count(self, tiny_workload):
        """Each m-subset contributes m! permutations."""
        full = all_permutation_candidates(tiny_workload, 3)
        by_set: dict[frozenset[int], int] = {}
        for index in full:
            by_set[index.attribute_set] = (
                by_set.get(index.attribute_set, 0) + 1
            )
        import math

        for attribute_set, count in by_set.items():
            assert count == math.factorial(len(attribute_set))


class TestSingleAttribute:
    def test_one_per_accessed_attribute(self, tiny_workload):
        singles = single_attribute_candidates(tiny_workload)
        accessed = set()
        for query in tiny_workload:
            accessed |= query.attributes
        assert {index.attributes[0] for index in singles} == accessed
        assert all(index.width == 1 for index in singles)


class TestCandidateHeuristics:
    @pytest.fixture
    def statistics(self, small_workload) -> WorkloadStatistics:
        return WorkloadStatistics(small_workload)

    def test_h1m_ranks_by_occurrences(self, statistics):
        candidates = candidates_h1m(statistics, 8, 2)
        singles = [index for index in candidates if index.width == 1]
        occurrence_values = [
            statistics.occurrences(index.attributes[0])
            for index in singles
        ]
        assert occurrence_values == sorted(
            occurrence_values, reverse=True
        )

    def test_h2m_ranks_by_selectivity(self, statistics):
        candidates = candidates_h2m(statistics, 8, 2)
        singles = [index for index in candidates if index.width == 1]
        selectivities = [
            statistics.combined_selectivity(index.attribute_set)
            for index in singles
        ]
        assert selectivities == sorted(selectivities)

    def test_h3m_combines_both(self, statistics):
        candidates = candidates_h3m(statistics, 8, 2)
        singles = [index for index in candidates if index.width == 1]
        ratios = [
            statistics.combined_selectivity(index.attribute_set)
            / statistics.occurrences(index.attributes[0])
            for index in singles
        ]
        assert ratios == sorted(ratios)

    @pytest.mark.parametrize(
        "heuristic", [candidates_h1m, candidates_h2m, candidates_h3m]
    )
    def test_budget_split_across_widths(self, statistics, heuristic):
        candidates = heuristic(statistics, 8, 2)
        by_width: dict[int, int] = {}
        for index in candidates:
            by_width[index.width] = by_width.get(index.width, 0) + 1
        assert by_width.get(1, 0) <= 4
        assert by_width.get(2, 0) <= 4

    @pytest.mark.parametrize(
        "heuristic", [candidates_h1m, candidates_h2m, candidates_h3m]
    )
    def test_only_co_accessed_combinations(
        self, statistics, small_workload, heuristic
    ):
        candidates = heuristic(statistics, 20, 3)
        for index in candidates:
            accessed = statistics.accessed_combinations(index.width)
            assert index.attribute_set in accessed

    def test_rejects_budget_below_width(self, statistics):
        with pytest.raises(IndexDefinitionError, match="budget"):
            candidates_h1m(statistics, 2, 4)
