"""Micro-benchmarks of the performance-critical substrate pieces.

Covers the inner loops the experiments spend their time in: analytic
cost-model evaluation, what-if facade lookups, engine probes and scans,
exhaustive candidate generation, and the BIP construction.
"""

from __future__ import annotations

import numpy as np

from repro.cophy.model import build_problem
from repro.cost.model import CostModel
from repro.engine.columnstore import ColumnStoreDatabase
from repro.engine.executor import QueryExecutor, generate_literals
from repro.engine.index_structures import CompositeSortedIndex
from repro.indexes.candidates import (
    single_attribute_candidates,
    syntactically_relevant_candidates,
)
from repro.indexes.index import Index
from repro.indexes.memory import relative_budget


def test_cost_model_throughput(benchmark, bench_workload):
    """Per-(query, index) analytic cost evaluations per second."""
    model = CostModel(bench_workload.schema)
    pairs = []
    for query in bench_workload.queries[:10]:
        for index in single_attribute_candidates(bench_workload):
            if index.is_applicable_to(query):
                pairs.append((query, index))

    def evaluate() -> float:
        return sum(model.index_cost(query, index) for query, index in pairs)

    assert benchmark(evaluate) > 0


def test_whatif_cache_hit_latency(benchmark, bench_workload, bench_optimizer):
    """Cache-hit path of the facade (the hot path of Extend's loop)."""
    query = bench_workload.queries[0]
    attribute_id = sorted(query.attributes)[0]
    index = Index.of(bench_workload.schema, (attribute_id,))
    bench_optimizer.index_cost(query, index)  # warm

    benchmark(lambda: bench_optimizer.index_cost(query, index))
    assert bench_optimizer.statistics.cache_hits > 0


def test_engine_index_probe(benchmark, bench_workload):
    database = ColumnStoreDatabase(
        bench_workload.schema, seed=3, row_cap=100_000
    )
    table_name = bench_workload.schema.tables[0].name
    attribute_id = bench_workload.schema.table(table_name).attributes[0].id
    index = Index.of(bench_workload.schema, (attribute_id,))
    structure = CompositeSortedIndex(database.table(table_name), index)
    value = int(database.table(table_name).column(attribute_id)[0])

    probe = benchmark(lambda: structure.probe({attribute_id: value}))
    assert probe.matches >= 1


def test_engine_full_scan(benchmark, bench_workload):
    database = ColumnStoreDatabase(
        bench_workload.schema, seed=3, row_cap=100_000
    )
    executor = QueryExecutor(database)
    query = bench_workload.queries[0]
    literals = generate_literals(database, query, seed=1)

    rows, measurement = benchmark(
        lambda: executor.execute(query, literals)
    )
    assert measurement.traffic > 0


def test_imax_generation(benchmark, bench_workload):
    """Exhaustive candidate set ``I_max`` (width 4): one canonical
    permutation per query-attribute subset, deduplicated."""
    candidates = benchmark(
        syntactically_relevant_candidates, bench_workload
    )
    assert len(candidates) == len(set(candidates)) > 0
    assert candidates == sorted(
        candidates, key=lambda index: (index.table_name, index.attributes)
    )


def test_cophy_problem_construction(benchmark, bench_workload, bench_optimizer):
    """BIP construction time for the exhaustive candidate set."""
    candidates = syntactically_relevant_candidates(bench_workload)
    budget = relative_budget(bench_workload.schema, 0.2)
    bench_optimizer.cost_table(bench_workload, candidates)  # warm cache

    problem = benchmark.pedantic(
        lambda: build_problem(
            bench_workload, candidates, budget, bench_optimizer
        ),
        rounds=2,
        iterations=1,
    )
    assert problem.size.variables > 0
    assert isinstance(problem.objective, np.ndarray)
