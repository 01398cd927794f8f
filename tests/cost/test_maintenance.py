"""Write maintenance priced per index from the schema.

``WriteLoad`` takes one ``m_k`` per index and sums it over the writes
that maintain the index; these properties pin that derivation, bit for
bit, to the per-query sum of ``CostModel.maintenance_cost`` it replaced.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advisor import CostStack, run_selection
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource, WhatIfOptimizer, WriteLoad
from repro.indexes.index import Index
from repro.indexes.memory import relative_budget
from repro.workload.query import Query, QueryKind, Workload
from repro.workload.schema import Schema

_KINDS = (QueryKind.SELECT, QueryKind.UPDATE, QueryKind.INSERT)


@st.composite
def write_workloads(draw):
    """Two or three tables (row counts down to 1) and a mix of SELECT,
    UPDATE and INSERT templates on them."""
    specs = {}
    for table in range(draw(st.integers(min_value=2, max_value=3))):
        rows = draw(st.integers(min_value=1, max_value=1_000_000))
        columns = [
            (
                f"A{column}",
                draw(st.integers(min_value=1, max_value=min(rows, 5_000))),
                draw(st.integers(min_value=1, max_value=16)),
            )
            for column in range(draw(st.integers(min_value=2, max_value=5)))
        ]
        specs[f"T{table}"] = (rows, columns)
    schema = Schema.build(specs)
    queries = []
    for query_id in range(draw(st.integers(min_value=1, max_value=12))):
        table = draw(st.sampled_from(schema.tables))
        ids = [attribute.id for attribute in table.attributes]
        queries.append(
            Query(
                query_id,
                table.name,
                frozenset(draw(st.sets(st.sampled_from(ids), min_size=1))),
                draw(
                    st.floats(
                        min_value=0.01, max_value=1e6, allow_nan=False
                    )
                ),
                kind=draw(st.sampled_from(_KINDS)),
            )
        )
    return Workload(schema, queries)


@st.composite
def workloads_and_extensions(draw):
    """A write workload, an index ``k`` and an extension ``k·a`` of it."""
    workload = draw(write_workloads())
    table = draw(st.sampled_from(workload.schema.tables))
    ids = [attribute.id for attribute in table.attributes]
    order = draw(st.permutations(ids))
    width = draw(st.integers(min_value=1, max_value=len(ids) - 1))
    index = Index(table.name, tuple(order[:width]))
    return workload, index, index.extended_by(order[width])


def _facade(workload):
    return WhatIfOptimizer(AnalyticalCostSource(CostModel(workload.schema)))


class TestPerIndexDerivation:
    @given(workloads_and_extensions())
    @settings(max_examples=200, deadline=None)
    def test_load_is_the_per_query_sum(self, case):
        workload, index, extended = case
        model = CostModel(workload.schema)
        writes = WriteLoad(workload.queries)
        for candidate in (index, extended):
            on_table = [
                query
                for query in workload
                if not query.is_select
                and query.table_name == candidate.table_name
            ]
            assert writes.load(_facade(workload), candidate) == sum(
                (
                    query.frequency
                    * model.maintenance_cost(query, candidate)
                    for query in on_table
                ),
                0.0,
            )

    @given(workloads_and_extensions())
    @settings(max_examples=200, deadline=None)
    def test_delta_is_the_per_query_difference(self, case):
        workload, index, extended = case
        model = CostModel(workload.schema)
        expected = 0.0
        for query in workload:
            if query.is_select or query.table_name != index.table_name:
                continue
            expected += query.frequency * (
                model.maintenance_cost(query, extended)
                - model.maintenance_cost(query, index)
            )
        writes = WriteLoad(workload.queries)
        facade = _facade(workload)
        assert writes.delta(facade, extended, index) == expected
        assert writes.delta(facade, index) == writes.load(facade, index)

    @given(workloads_and_extensions())
    @settings(max_examples=100, deadline=None)
    def test_facade_prices_the_model_without_calls(self, case):
        workload, index, extended = case
        model = CostModel(workload.schema)
        facade = _facade(workload)
        for query in workload:
            for candidate in (index, extended):
                assert facade.maintenance_cost(query, candidate) == (
                    model.maintenance_cost(query, candidate)
                )
                assert candidate.is_maintained_by(query) == (
                    model.maintenance_cost(query, candidate) > 0
                )
        assert facade.statistics.total_requests == 0


class TestNoMaintenanceStore:
    def test_stale_store_holds_only_priced_pairs(self, small_workload):
        """After an Extend run on a write workload, the resilient
        layer's stale store holds no more entries than the facade's
        cost cache: maintenance is never a stored answer."""
        workload = Workload(
            small_workload.schema,
            [
                Query(
                    query.query_id,
                    query.table_name,
                    query.attributes,
                    query.frequency,
                    kind=_KINDS[query.query_id % 3],
                )
                for query in small_workload
            ],
        )
        stack = CostStack(workload.schema)
        run_selection(
            workload,
            relative_budget(workload.schema, 0.3),
            algorithm="extend",
            optimizer=stack.optimizer,
        )
        cost_entries = len(
            stack.optimizer.export_cache(workload.queries)["cost"]
        )
        assert cost_entries > 0
        assert stack.resilient.stale_cache_size <= cost_entries

    def test_source_without_schema_charges_no_maintenance(
        self, small_workload
    ):
        class ReadOnly:
            def query_cost(self, query, index):
                return 1.0

        facade = WhatIfOptimizer(ReadOnly())
        index = Index(small_workload.queries[0].table_name, (
            min(small_workload.queries[0].attributes),
        ))
        insert = Query(
            0, index.table_name, frozenset(index.attributes), 1.0,
            kind=QueryKind.INSERT,
        )
        assert index.is_maintained_by(insert)
        assert facade.index_maintenance(index) == 0.0
        assert facade.maintenance_cost(insert, index) == 0.0
