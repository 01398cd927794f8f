"""Tests for the seeded chaos harness (and its determinism)."""

from __future__ import annotations

import pytest

from repro.service.chaos import SCENARIOS, ChaosHarness, main


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_invariants_hold(scenario):
    report = ChaosHarness(seed=7).run(scenario)
    assert report.ok, "\n".join(report.violations)
    assert report.scenario == scenario
    assert report.admitted >= 1


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown chaos scenario"):
        ChaosHarness(seed=7).run("thermonuclear")


@pytest.mark.parametrize("scenario", ["malformed_lines", "clock_skew"])
def test_same_seed_same_report(scenario):
    """One seed, one report: the harness is usable as a regression
    oracle only if its output is a pure function of the seed."""
    first = ChaosHarness(seed=1909).run(scenario).to_dict()
    second = ChaosHarness(seed=1909).run(scenario).to_dict()
    assert first == second


def test_different_seeds_change_the_fault_plan():
    lines_a = ChaosHarness(seed=7).run("malformed_lines").to_dict()
    lines_b = ChaosHarness(seed=1909).run("malformed_lines").to_dict()
    # Both must pass; the scripted faults themselves may differ.
    assert lines_a["ok"] and lines_b["ok"]


def test_cli_exits_zero_on_clean_run(capsys):
    import json

    code = main(["--seed", "7", "--scenario", "malformed_lines"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["ok"] and report["seed"] == 7
