"""Golden regression tests for the flagship experiment recommendations.

Each fixture under ``tests/golden/`` is a JSON snapshot of the full
step trace, final configuration, memory, and cost Extend produces on a
scaled-down Fig. 2 / Fig. 4 workload.  Any behavioural drift in the
selection pipeline — candidate enumeration order, tie-breaking, the
incremental evaluation engine, the cost model — shows up here as a
unified diff of the step trace.

``fig4_writes_extend`` turns a seeded fifth of the Fig. 4 templates
into UPDATEs and INSERTs and records ``repr(total_cost)`` and the
what-if call count of every run, so the index-maintenance bookkeeping
(which the naive oracle shares with the incremental engine) is pinned
bit for bit.

Intentional changes are re-snapshotted with::

    PYTHONPATH=src python -m pytest tests/golden -q --update-golden

and the rewritten JSON committed alongside the change that caused it.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.extend import ExtendAlgorithm
from repro.core.steps import SelectionResult
from repro.core.variants import extend_with_n_best_singles
from repro.experiments.common import analytic_optimizer
from repro.indexes.memory import relative_budget
from repro.workload.enterprise import (
    EnterpriseConfig,
    generate_enterprise_workload,
)
from repro.workload.generator import GeneratorConfig, generate_workload
from repro.workload.query import QueryKind, Workload

GOLDEN_DIR = Path(__file__).parent

# Scaled-down stand-ins for the paper's figure workloads: same shape
# and seeds as the experiment defaults, fewer query templates so each
# scenario replays in about a second.
FIG2_CONFIG = GeneratorConfig(
    attributes_per_table=50, queries_per_table=20, seed=1909
)
FIG4_CONFIG = EnterpriseConfig(scale=0.02, seed=500)
WRITE_SEED = 2271
WRITE_SHARE = 0.2


def _snapshot(result: SelectionResult) -> dict:
    return {
        "steps": list(result.step_trace()),
        "memory": result.memory,
        "total_cost": f"{result.total_cost:.6g}",
        "configuration": [
            [table, list(attributes)]
            for table, attributes in result.configuration_signature()
        ],
    }


def _exact_snapshot(result: SelectionResult) -> dict:
    return {
        **_snapshot(result),
        "total_cost_repr": repr(result.total_cost),
        "whatif_calls": result.whatif_calls,
    }


def _sweep(
    workload, algorithms: dict, shares: tuple[float, ...], snapshot=_snapshot
) -> dict:
    runs: dict[str, dict] = {}
    for name, build in algorithms.items():
        optimizer = analytic_optimizer(workload)
        runs[name] = {
            f"w={share}": snapshot(
                build(optimizer).select(
                    workload, relative_budget(workload.schema, share)
                )
            )
            for share in shares
        }
    return runs


def _with_writes(workload: Workload) -> Workload:
    """``workload`` with a ``WRITE_SEED``-drawn ``WRITE_SHARE`` of its
    templates made writes, half of them UPDATEs and half INSERTs."""
    rng = np.random.default_rng(WRITE_SEED)
    writes = rng.uniform(size=len(workload)) < WRITE_SHARE
    updates = rng.uniform(size=len(workload)) < 0.5
    return Workload(
        workload.schema,
        [
            dataclasses.replace(
                query,
                kind=(QueryKind.UPDATE if update else QueryKind.INSERT)
                if write
                else QueryKind.SELECT,
            )
            for query, write, update in zip(
                workload.queries, writes, updates
            )
        ],
    )


def _fig2_snapshot() -> dict:
    workload = generate_workload(FIG2_CONFIG)
    return {
        "workload": (
            "fig2 scaled: 10 tables x 50 attributes, 20 queries/table, "
            "seed 1909"
        ),
        "runs": _sweep(
            workload,
            {
                "extend": ExtendAlgorithm,
                "extend_n_best_500": (
                    lambda optimizer: extend_with_n_best_singles(
                        optimizer, 500
                    )
                ),
            },
            (0.1, 0.2),
        ),
    }


def _fig4_snapshot() -> dict:
    workload = generate_enterprise_workload(FIG4_CONFIG)
    return {
        "workload": "fig4 scaled: enterprise workload at scale=0.02, seed 500",
        "runs": _sweep(
            workload,
            {"extend": ExtendAlgorithm},
            (0.05, 0.1),
        ),
    }


def _fig4_writes_snapshot() -> dict:
    workload = _with_writes(generate_enterprise_workload(FIG4_CONFIG))
    return {
        "workload": (
            "fig4 scaled: enterprise workload at scale=0.02, seed 500, "
            f"{WRITE_SHARE:.0%} of templates UPDATE/INSERT (seed "
            f"{WRITE_SEED})"
        ),
        "runs": _sweep(
            workload,
            {"extend": ExtendAlgorithm},
            (0.02, 0.05, 0.1),
            snapshot=_exact_snapshot,
        ),
    }


SCENARIOS = {
    "fig2_extend": _fig2_snapshot,
    "fig4_extend": _fig4_snapshot,
    "fig4_writes_extend": _fig4_writes_snapshot,
}


def _render(snapshot: dict) -> list[str]:
    return json.dumps(snapshot, indent=2, sort_keys=True).splitlines(
        keepends=True
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden(name: str, update_golden: bool) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    actual = SCENARIOS[name]()
    if update_golden:
        path.write_text(
            json.dumps(actual, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    if not path.exists():
        pytest.fail(
            f"golden fixture {path} is missing; create it with "
            "`pytest tests/golden --update-golden`"
        )
    expected = json.loads(path.read_text(encoding="utf-8"))
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                _render(expected),
                _render(actual),
                fromfile=f"golden/{name}.json (committed)",
                tofile=f"golden/{name}.json (current code)",
            )
        )
        pytest.fail(
            "recommendation drifted from the golden snapshot.\n"
            "If the change is intentional, refresh the fixture with "
            "`pytest tests/golden --update-golden` and commit it.\n"
            + diff
        )
