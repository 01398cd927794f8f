"""Self-test of the benchmark at toy scale (seconds, not minutes).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import run as benchmark  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from check import Checker, CheckError, index_from_label  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SERVICE_ONLY,
    WALL_CLOCK,
)
from repro import IndexAdvisor  # noqa: E402
from repro.workload.enterprise import (  # noqa: E402
    EnterpriseConfig,
    generate_enterprise_workload,
)
from repro.workload.generator import (  # noqa: E402
    GeneratorConfig,
    generate_workload,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+) n=(\d+)$")


@pytest.fixture
def toy(monkeypatch):
    """Toy instances and a short serve-drift run."""
    fig2 = generate_workload(
        GeneratorConfig(tables=2, attributes_per_table=6, seed=7)
    )
    erp = inputs.with_writes(
        generate_enterprise_workload(EnterpriseConfig(scale=0.02))
    )
    monkeypatch.setattr(inputs, "fig2_base", lambda: fig2)
    monkeypatch.setattr(inputs, "erp_base", lambda: erp)
    monkeypatch.setattr(workloads, "SETUP_PROBES", 1)
    monkeypatch.setattr(workloads, "MIN_EPOCHS", 2)
    monkeypatch.setattr(workloads, "MAX_EPOCHS", 3)
    monkeypatch.setattr(workloads, "RECOMMENDS_PER_EPOCH", 3)
    monkeypatch.setattr(benchmark, "TRACE_DIR", ROOT / ".perfbench" / "test")
    return erp


def _run(capsys, workload: str, trace: int) -> tuple[int, dict, dict]:
    status = benchmark.main([
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace),
    ])
    lines = capsys.readouterr().out.splitlines()
    printed = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        assert match, line
        name, value, unit, samples = match.groups()
        assert int(samples) >= 1
        printed[name] = (float(value), unit)
    return status, json.loads(lines[-1]), printed


@pytest.mark.parametrize("workload", benchmark.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(toy, capsys, workload, trace):
    status, result, printed = _run(capsys, workload, trace)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == entry["unit"]
        assert printed[entry["name"]] == (metric["value"], metric["unit"])
    if trace:
        assert printed["trace.unaccounted_share"][0] < 0.1 or (
            workload == "serve-drift"
        )
    else:
        assert printed["error_rate"] == (0.0, "ratio")
        for entry in SPEC["end_to_end"]:
            assert result["metrics"][entry["name"]]["value"] > 0
        assert set(WALL_CLOCK) <= set(printed)
        if workload == "serve-drift":
            assert set(SERVICE_ONLY) <= set(printed)


def test_benchmark_json_matches_metric_tables():
    assert {e["name"]: e["unit"] for e in SPEC["end_to_end"]} == END_TO_END
    assert {e["name"]: e["unit"] for e in SPEC["per_layer"]} == PER_LAYER
    gated = [w["name"] for w in SPEC["workloads"]]
    assert gated == [w for w in benchmark.WORKLOADS if w in gated]
    assert set(benchmark.WORKLOADS) - set(gated) == {"advise-erp"}


def test_checker_rejects_over_budget_and_wrong_cost(toy):
    reference = inputs.erp_request(3, 0)
    schema = reference.schema
    result = IndexAdvisor(schema).recommend(
        inputs.templates(reference), budget_share=0.3, algorithm="extend"
    ).result
    assert result.configuration
    checker = Checker(schema)
    fields = dict(
        total_cost=result.total_cost, memory=result.memory,
        budget=result.budget,
    )
    assert 0 < checker.check(reference, result.configuration, **fields) < 1
    with pytest.raises(CheckError, match="exceeds the budget"):
        checker.check(
            reference, result.configuration,
            **{**fields, "budget": result.memory - 1},
        )
    with pytest.raises(CheckError, match="differs from the reference"):
        checker.check(
            reference, result.configuration,
            **{**fields, "total_cost": result.total_cost * (1 + 1e-6)},
        )
    labels = [index.label(schema) for index in result.configuration]
    assert {index_from_label(schema, label) for label in labels} == set(
        result.configuration
    )


def test_failed_protocol_line_counts_toward_error_rate(
    toy, capsys, monkeypatch
):
    call = workloads.ServiceClient.call
    sent = []

    def misdirect(self, message):
        sent.append(message)
        if len(sent) == 4:  # a recommend of the first epoch
            message = {**message, "workload": "not-registered"}
        return call(self, message)

    monkeypatch.setattr(workloads.ServiceClient, "call", misdirect)
    status, result, printed = _run(capsys, "serve-drift", 0)
    assert status == 1 and result["correct"] is False
    assert result["failed"] == 1
    assert printed["error_rate"] == (1 / result["attempted"], "ratio")


def test_speed_probe_scales_by_mean_speed_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe:
        deadline = time.perf_counter() + 4 * speed.INTERVAL_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(probe.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    speeds = [speed.REFERENCE_S / seconds for _, seconds in probe.samples]
    assert probe.speed() == pytest.approx(statistics.fmean(speeds))
    first, last = probe.samples[0][0], probe.samples[-1][0]
    assert probe.reference_seconds(first, first + 0.5) == pytest.approx(
        0.5 * statistics.fmean(
            speed.REFERENCE_S / seconds
            for began, seconds in probe.samples
            if began <= first + 0.5 + speed.WINDOW_S
        )
    )
    far = last + 10 * speed.WINDOW_S  # no sample near: the run's speed
    assert probe.reference_seconds(far, far + 2.0) == pytest.approx(
        2.0 * probe.speed()
    )


def test_speed_probe_samples_a_loop_shorter_than_its_interval():
    probe = speed.SpeedProbe()
    with probe:
        pass
    assert len(probe.samples) == 1 and probe.samples[0][1] > 0
