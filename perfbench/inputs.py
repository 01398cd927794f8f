"""Seeded inputs of the end-to-end benchmark.

Every random choice of a run is drawn here from the ``--seed`` argument;
the program under test only ever receives a schema (what a user hands
the advisor about their catalog) and SQL template text.

The instances are fixed at the paper's defaults: the Appendix C
generator at seed 1909 (Fig. 2), and the enterprise generator at seed
500 (Section IV-A) with a ``WRITE_SHARE`` of its templates turned into
writes under ``WRITE_SEED``.  ``--seed`` drives ``repro.workload.drift``
on top of them: ``REQUEST_VOLATILITY`` frequency noise per one-shot
request, and on serve-drift the drift model's random walk plus template
churn per epoch.  A new generator instance, write set or a full drift
step per seed spread request time by a quarter to a half between seeds
(the enterprise report is quadratic in the number of selected indexes,
which moved between 93 and 150), wider than a regression bound of 0.25
can resolve.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.workload.drift import DriftConfig, drifting_workloads
from repro.workload.enterprise import (
    EnterpriseConfig,
    generate_enterprise_workload,
)
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.query import Query, QueryKind, Workload
from repro.workload.schema import Schema

FIG2_GENERATOR_SEED = 1909
FIG2_QUERIES_PER_TABLE = 100  # Fig. 2's Q = 1 000 (repro.experiments.fig2)
ERP_GENERATOR_SEED = 500
WRITE_SEED = 2271
DEFAULT_SEED = 2019
"""Drift seed when ``--seed`` is omitted (``DriftConfig``'s default)."""
HELD_OUT_SEED = 20190408
"""Never used while tuning: confirm a claimed gain on this seed too."""

FIG2_BUDGET_SHARE = 0.2
ERP_BUDGET_SHARE = 0.1
WRITE_SHARE = 0.2
REQUEST_VOLATILITY = 0.1
"""Frequency noise of a one-shot request: the same application's
execution counts on another day."""
DRIFT_VOLATILITY = 0.3  # DriftConfig's default random walk per epoch
DRIFT_CHURN = 0.05
SERVE_BUDGET_SHARES = (0.02, 0.05, 0.1)
SWEEP_SPEC = "0.01:0.1:10"


def sub_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for the ``path``-th draw of a run."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def render(schema: Schema, query: Query) -> str:
    """One template in the dialect of ``repro.workload.sql``.

    Parsing the text back yields ``query``'s table, attribute set and
    kind: an UPDATE sets its first attribute and filters on the rest, an
    INSERT lists every attribute.
    """
    names = [
        schema.attribute(attribute).name
        for attribute in sorted(query.attributes)
    ]
    table = query.table_name
    if query.kind is QueryKind.SELECT:
        return f"SELECT * FROM {table} WHERE " + " AND ".join(
            f"{name} = ?" for name in names
        )
    if query.kind is QueryKind.UPDATE:
        sql = f"UPDATE {table} SET {names[0]} = ?"
        if len(names) > 1:
            sql += " WHERE " + " AND ".join(
                f"{name} = ?" for name in names[1:]
            )
        return sql
    return (
        f"INSERT INTO {table} ({', '.join(names)}) "
        f"VALUES ({', '.join('?' for _ in names)})"
    )


def with_writes(workload: Workload) -> Workload:
    """``workload`` with a ``WRITE_SEED``-drawn ``WRITE_SHARE`` of its
    templates made writes, half of them UPDATEs and half INSERTs."""
    rng = np.random.default_rng(WRITE_SEED)
    writes = rng.uniform(size=len(workload)) < WRITE_SHARE
    updates = rng.uniform(size=len(workload)) < 0.5
    return Workload(workload.schema, [
        dataclasses.replace(
            query,
            kind=(QueryKind.UPDATE if update else QueryKind.INSERT)
            if write else QueryKind.SELECT,
        )
        for query, write, update in zip(workload.queries, writes, updates)
    ])


def templates(workload: Workload) -> list[tuple[str, float]]:
    """The ``(sql, frequency)`` pairs the program receives."""
    return [
        (render(workload.schema, query), query.frequency)
        for query in workload.queries
    ]


def schema_spec(schema: Schema) -> dict:
    """JSON-safe ``Schema.build`` specification of ``schema``."""
    return {
        table.name: [
            table.row_count,
            [
                [attribute.name, attribute.distinct_values,
                 attribute.value_size]
                for attribute in table.attributes
            ],
        ]
        for table in schema.tables
    }


def _drift(base: Workload, config: DriftConfig) -> list[Workload]:
    """``repro.workload.drift`` epochs of ``base``.  The drift model
    emits SELECTs only, so each template keeps its kind by query id."""
    kinds = [query.kind for query in base.queries]
    return [
        Workload(base.schema, [
            dataclasses.replace(query, kind=kinds[query.query_id])
            for query in epoch.queries
        ])
        for epoch in drifting_workloads(base, config)
    ]


@functools.cache
def fig2_base() -> Workload:
    """The Appendix C instance of Fig. 2: 10 tables x 50 attributes,
    1 000 read-only templates."""
    return generate_workload(GeneratorConfig(
        queries_per_table=FIG2_QUERIES_PER_TABLE, seed=FIG2_GENERATOR_SEED
    ))


@functools.cache
def erp_base() -> Workload:
    """The scale 1.0 enterprise instance (500 tables, 4 204 attributes,
    2 271 templates) with its writes."""
    return with_writes(generate_enterprise_workload(
        EnterpriseConfig(seed=ERP_GENERATOR_SEED)
    ))


def _request(base: Workload, seed: int) -> Workload:
    """``base`` under one step of ``REQUEST_VOLATILITY`` frequency noise."""
    config = DriftConfig(
        epochs=2,
        frequency_volatility=REQUEST_VOLATILITY,
        churn_rate=0.0,
        seed=seed,
    )
    return _drift(base, config)[1]


def fig2_request(seed: int, request: int) -> Workload:
    """Reference workload of the ``request``-th advise-fig2 request."""
    return _request(fig2_base(), sub_seed(seed, 1, request))


def erp_request(seed: int, request: int) -> Workload:
    """Reference workload of the ``request``-th advise-erp request."""
    return _request(erp_base(), sub_seed(seed, 2, request))


def serve_epochs(seed: int, epochs: int) -> list[Workload]:
    """Reference workloads of the serve-drift epochs: epoch 0 is
    registered, every later one is sent as an ``update``."""
    config = DriftConfig(
        epochs=epochs,
        frequency_volatility=DRIFT_VOLATILITY,
        churn_rate=DRIFT_CHURN,
        seed=sub_seed(seed, 3),
    )
    return _drift(erp_base(), config)
