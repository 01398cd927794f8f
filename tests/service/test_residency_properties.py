"""Property test of the service's one cross-request state: the what-if cache.

A random sequence drives one :class:`AdvisorService`: register, then
updates (template churn and frequency changes), recommends at random
shares and sweeps, with one snapshot-and-restart somewhere in between.
Every answer must equal a cold ``run_selection`` on a fresh facade, bit
for bit, and a request repeated at an unchanged workload version must
run warm without a single backend what-if call — through every update,
scoped invalidation and restore.
"""

from __future__ import annotations

import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advisor import IndexAdvisor, run_selection
from repro.indexes.memory import relative_budget
from repro.service import AdvisorService, RecommendRequest, SweepRequest
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.query import Query, Workload

BASE = generate_workload(
    GeneratorConfig(
        tables=2, attributes_per_table=8, queries_per_table=10, seed=13
    )
)
SCHEMA = BASE.schema
SHARES = (0.05, 0.1, 0.2, 0.3, 0.6)

_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("recommend"), st.sampled_from(SHARES)),
        st.tuples(
            st.just("sweep"),
            st.lists(
                st.sampled_from(SHARES), min_size=1, max_size=3, unique=True
            ).map(tuple),
        ),
        st.tuples(st.just("update"), st.integers(0, 2**16)),
    ),
    min_size=2,
    max_size=8,
)


def _drift(workload: Workload, seed: int) -> Workload:
    """Drop some templates, rescale some frequencies, add new ones."""
    rng = random.Random(seed)
    kept = [query for query in workload if rng.random() > 0.2]
    queries = [
        Query(
            query.query_id,
            query.table_name,
            query.attributes,
            query.frequency * rng.choice((0.5, 2.0, 3.0)),
            query.kind,
        )
        if rng.random() < 0.3
        else query
        for query in kept
    ]
    next_id = max(query.query_id for query in workload) + 1
    for offset in range(rng.randint(0 if queries else 1, 3)):
        table = rng.choice(SCHEMA.tables)
        attributes = [attribute.id for attribute in table.attributes]
        queries.append(
            Query(
                next_id + offset,
                table.name,
                frozenset(rng.sample(attributes, rng.randint(1, 3))),
                float(rng.randint(1, 1000)),
            )
        )
    return Workload(SCHEMA, queries)


def _cold(workload: Workload, share: float):
    return run_selection(
        workload,
        relative_budget(SCHEMA, share),
        algorithm="extend",
        optimizer=IndexAdvisor(SCHEMA).optimizer,
    )


def _assert_cold_equal(result, workload: Workload, share: float) -> None:
    cold = _cold(workload, share)
    assert (
        result.configuration_signature() == cold.configuration_signature()
    )
    assert repr(result.total_cost) == repr(cold.total_cost)


@given(operations=_OPERATIONS, restart_at=st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_resident_answers_match_cold_runs(operations, restart_at):
    operations = list(operations)
    operations.insert(min(restart_at, len(operations)), ("restart", None))
    operations.append(("recommend", SHARES[0]))
    operations.append(("recommend", SHARES[0]))

    workload = BASE
    version = 1
    answered: set[tuple[int, float]] = set()
    priced: set[int] = set()
    with tempfile.TemporaryDirectory() as directory:
        service = AdvisorService(SCHEMA, snapshot_dir=directory)
        try:
            service.register_workload("w", workload)
            for kind, argument in operations:
                if kind == "restart":
                    service.snapshot_now()
                    service.close()
                    service = AdvisorService(SCHEMA, snapshot_dir=directory)
                    assert service.restore_report.restored
                    assert service.workloads() == ("w",)
                    # The restored version counts as priced when the
                    # snapshot carried cache entries for it, so its
                    # first request is no longer asserted cold.
                    priced.add(version)
                elif kind == "update":
                    workload = _drift(workload, argument)
                    registration = service.update_workload("w", workload)
                    version += 1
                    assert registration.version == version
                elif kind == "recommend":
                    response = service.recommend(
                        RecommendRequest(workload="w", budget_share=argument)
                    )
                    assert response.workload_version == version
                    _assert_cold_equal(response.result, workload, argument)
                    if (version, argument) in answered:
                        assert response.warm
                        assert response.gauges["whatif.calls"] == 0
                    elif version not in priced:
                        assert not response.warm
                    answered.add((version, argument))
                    priced.add(version)
                else:
                    response = service.sweep(
                        SweepRequest(workload="w", budget_shares=argument)
                    )
                    assert response.workload_version == version
                    assert not response.partial
                    for point in response.sweep.points:
                        _assert_cold_equal(
                            point.result, workload, point.budget_share
                        )
                    if all((version, share) in answered for share in argument):
                        assert response.warm
                        assert response.gauges["sweep.backend_calls"] == 0
                    elif version not in priced:
                        assert not response.warm
                    answered.update((version, share) for share in argument)
                    priced.add(version)
        finally:
            service.close()
