"""Tests for the synthetic enterprise (ERP) workload."""

from __future__ import annotations

import pytest

from repro.cost.kernel import VectorizedCostSource
from repro.cost.whatif import WhatIfOptimizer
from repro.exceptions import WorkloadError
from repro.indexes.candidates import syntactically_relevant_candidates
from repro.workload.enterprise import (
    EnterpriseConfig,
    generate_enterprise_workload,
)


class TestEnterpriseConfig:
    def test_scaling(self):
        config = EnterpriseConfig(scale=0.1)
        assert config.scaled_tables == 50
        assert config.scaled_attributes == 420
        assert config.scaled_templates == 227

    def test_paper_scale_defaults(self):
        config = EnterpriseConfig()
        assert config.scaled_tables == 500
        assert config.scaled_attributes == 4_204
        assert config.scaled_templates == 2_271

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": 0.0},
            {"scale": 1.5},
            {"tables": 0},
            {"total_attributes": 5, "tables": 10},
            {"query_templates": 0},
            {"min_rows": 0},
            {"max_rows": 10, "min_rows": 100},
            {"point_access_share": 1.5},
            {"point_access_share": 0.9, "medium_share": 0.5},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(WorkloadError):
            EnterpriseConfig(**kwargs)


class TestEnterpriseWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_enterprise_workload(
            EnterpriseConfig(scale=0.08, seed=500)
        )

    def test_counts_match_scaled_config(self, workload):
        config = EnterpriseConfig(scale=0.08, seed=500)
        assert workload.schema.table_count == config.scaled_tables
        assert workload.schema.attribute_count == config.scaled_attributes
        assert workload.query_count == config.scaled_templates

    def test_row_counts_in_published_range(self, workload):
        for table in workload.schema.tables:
            assert 350_000 <= table.row_count <= 1_500_000_000

    def test_point_access_dominates(self, workload):
        narrow = sum(
            1 for query in workload if query.attribute_count <= 3
        )
        assert narrow / workload.query_count > 0.6

    def test_has_analytical_tail(self, workload):
        widths = [query.attribute_count for query in workload]
        assert max(widths) >= 5

    def test_frequencies_are_heavy_tailed(self, workload):
        frequencies = sorted(
            (query.frequency for query in workload), reverse=True
        )
        top_decile = sum(frequencies[: len(frequencies) // 10])
        assert top_decile > 0.5 * sum(frequencies)

    def test_deterministic(self):
        config = EnterpriseConfig(scale=0.05, seed=1)
        first = generate_enterprise_workload(config)
        second = generate_enterprise_workload(config)
        assert [q.attributes for q in first] == [
            q.attributes for q in second
        ]

    def test_total_executions_scale(self):
        config = EnterpriseConfig(scale=0.05, seed=2)
        workload = generate_enterprise_workload(config)
        total = workload.total_frequency()
        expected = config.total_executions * config.scale
        assert expected * 0.5 <= total <= expected * 2.0


class TestEnterprisePaperScale:
    """Distributional invariants at ``scale=1.0`` — the published
    Section IV-A aggregates the generator exists to reproduce.  The
    whole-enterprise pricing sweep consumes exactly this workload;
    these tests pin it against generator drift."""

    @pytest.fixture(scope="class")
    def workload(self):
        return generate_enterprise_workload(EnterpriseConfig())

    def test_published_counts_exactly(self, workload):
        assert workload.schema.table_count == 500
        assert workload.schema.attribute_count == 4_204
        assert workload.query_count == 2_271

    def test_row_counts_span_published_range(self, workload):
        rows = [table.row_count for table in workload.schema.tables]
        assert all(350_000 <= count <= 1_500_000_000 for count in rows)
        # The range is actually *spanned*, not just respected: the
        # log-uniform draw must produce both ends of the ERP spectrum.
        assert min(rows) < 1_000_000
        assert max(rows) > 1_000_000_000

    def test_point_access_share(self, workload):
        narrow = sum(
            1 for query in workload if query.attribute_count <= 3
        )
        share = narrow / workload.query_count
        # "a majority of point-access queries": the configured 80 %
        # point-access draw realizes slightly higher because the medium
        # band can also produce width-3 templates.
        assert 0.75 <= share <= 0.95

    def test_analytical_tail_reaches_published_width(self, workload):
        widths = [query.attribute_count for query in workload]
        assert max(widths) >= 8
        assert max(widths) <= 12

    def test_total_executions_match_published(self, workload):
        assert workload.total_frequency() == pytest.approx(
            50_000_000.0, rel=1e-3
        )

    def test_frequencies_are_heavy_tailed(self, workload):
        frequencies = sorted(
            (query.frequency for query in workload), reverse=True
        )
        top_decile = sum(frequencies[: len(frequencies) // 10])
        assert top_decile > 0.5 * sum(frequencies)

    def test_every_table_has_attributes(self, workload):
        for table in workload.schema.tables:
            assert len(table.attributes) >= 1

    def test_whole_enterprise_cost_table_shape(self, workload):
        """Every width-<=4 syntactically relevant candidate priced
        against every query it applies to."""
        candidates = syntactically_relevant_candidates(workload, 4)
        assert len(candidates) == 10_569
        optimizer = WhatIfOptimizer(VectorizedCostSource(workload.schema))
        table = optimizer.cost_table(workload, candidates)
        assert len(table) == 153_195

    def test_deterministic_at_paper_scale(self, workload):
        again = generate_enterprise_workload(EnterpriseConfig())
        assert [query.attributes for query in again] == [
            query.attributes for query in workload
        ]
        assert [query.frequency for query in again] == [
            query.frequency for query in workload
        ]
