"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestAdvise:
    def test_default_extend_run(self, capsys):
        exit_code = main(
            [
                "advise",
                "--tables", "2",
                "--attributes", "6",
                "--queries", "6",
                "--budget", "0.3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Recommended indexes:" in output
        assert "H6" in output

    def test_tpcc_workload(self, capsys):
        exit_code = main(
            ["advise", "--workload", "tpcc", "--budget", "0.4"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "STOCK" in output or "CUSTOMER" in output

    def test_cophy_algorithm(self, capsys):
        exit_code = main(
            [
                "advise",
                "--tables", "2",
                "--attributes", "6",
                "--queries", "6",
                "--algorithm", "cophy",
                "--candidates", "12",
                "--budget", "0.3",
            ]
        )
        assert exit_code == 0
        assert "CoPhy" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "algorithm", ["h1", "h2", "h3", "h4", "h4s", "h5"]
    )
    def test_heuristics(self, capsys, algorithm):
        exit_code = main(
            [
                "advise",
                "--tables", "2",
                "--attributes", "5",
                "--queries", "5",
                "--algorithm", algorithm,
                "--budget", "0.3",
            ]
        )
        assert exit_code == 0
        assert "Recommended indexes:" in capsys.readouterr().out

    def test_steps_flag(self, capsys):
        exit_code = main(
            [
                "advise",
                "--tables", "2",
                "--attributes", "5",
                "--queries", "5",
                "--budget", "0.3",
                "--steps",
            ]
        )
        assert exit_code == 0
        assert "Construction trace:" in capsys.readouterr().out

    def test_trace_file_and_metrics(self, capsys, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        exit_code = main(
            [
                "advise",
                "--tables", "2",
                "--attributes", "5",
                "--queries", "5",
                "--budget", "0.3",
                "--trace", str(trace_path),
                "--metrics",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Telemetry metrics:" in output
        assert "span.extend.step.seconds" in output
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if line
        ]
        types = {record["type"] for record in records}
        assert {"span", "step", "metrics"} <= types

    def test_whatif_cache_line(self, capsys):
        exit_code = main(
            [
                "advise",
                "--tables", "2",
                "--attributes", "5",
                "--queries", "5",
                "--budget", "0.3",
            ]
        )
        assert exit_code == 0
        assert "What-if cache:" in capsys.readouterr().out

    def test_erp_workload(self, capsys):
        exit_code = main(
            [
                "advise",
                "--workload", "erp",
                "--scale", "0.02",
                "--budget", "0.05",
            ]
        )
        assert exit_code == 0
        assert "Recommended indexes:" in capsys.readouterr().out


class TestExperiment:
    def test_dispatches_to_experiment_module(self, capsys):
        exit_code = main(["experiment", "fig6"])
        assert exit_code == 0
        assert "Fig. 6" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["advise", "--algorithm", "magic"])


class TestServe:
    _BASE = [
        "serve",
        "--tables", "2",
        "--attributes", "5",
        "--queries", "5",
        "--max-concurrency", "1",
        "--queue-depth", "1",
    ]

    def _run(self, monkeypatch, capsys, argv, messages):
        import io

        lines = "\n".join(json.dumps(m) for m in messages) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        exit_code = main(argv)
        captured = capsys.readouterr()
        responses = [
            json.loads(line)
            for line in captured.out.splitlines()
            if line
        ]
        return exit_code, responses, captured.err

    def test_serve_loop_over_stdio(self, monkeypatch, capsys):
        exit_code, responses, err = self._run(
            monkeypatch,
            capsys,
            self._BASE,
            [
                {"id": 1, "op": "recommend",
                 "workload": "appendix-c", "budget_share": 0.3},
                {"id": 2, "op": "recommend",
                 "workload": "appendix-c", "budget_share": 0.3},
                {"id": 3, "op": "stats"},
                {"id": 4, "op": "shutdown"},
            ],
        )
        assert exit_code == 0
        first, second, stats, shutdown = responses
        assert first["ok"] and not first["warm"]
        assert second["ok"] and second["warm"]
        assert first["indexes"] == second["indexes"]
        assert stats["gauges"]["service.completed"] == 2
        assert shutdown["ok"]
        # Humans read stderr; stdout stays pure protocol.
        assert "repro serve" in err

    def test_serve_shares_cost_flags_with_advise(
        self, monkeypatch, capsys
    ):
        exit_code, responses, _ = self._run(
            monkeypatch,
            capsys,
            self._BASE + [
                "--fault-rate", "0.2",
                "--fault-seed", "7",
                "--max-retries", "0",
                "--default-deadline", "60",
            ],
            [
                {"op": "recommend", "workload": "appendix-c",
                 "budget_share": 0.3},
                {"op": "shutdown"},
            ],
        )
        assert exit_code == 0
        response = responses[0]
        assert response["ok"]
        assert response["status"] == "completed"
        # The advise flags reach the service's cost stack: with
        # --max-retries 0 every injected fault falls back at once.
        gauges = response["gauges"]
        assert gauges["resilience.transient_failures"] > 0
        assert gauges["resilience.retries"] == 0
        assert gauges["resilience.fallback_calls"] > 0

    def test_serve_rejects_unknown_workload(self, monkeypatch, capsys):
        exit_code, responses, _ = self._run(
            monkeypatch,
            capsys,
            self._BASE,
            [
                {"op": "recommend", "workload": "nope",
                 "budget_share": 0.3},
                {"op": "shutdown"},
            ],
        )
        assert exit_code == 0
        assert responses[0]["error"] == "UnknownWorkloadError"

    def test_serve_with_fault_injection(self, monkeypatch, capsys):
        exit_code, responses, _ = self._run(
            monkeypatch,
            capsys,
            self._BASE + ["--fault-rate", "0.2", "--fault-seed", "7"],
            [
                {"op": "recommend", "workload": "appendix-c",
                 "budget_share": 0.3},
                {"op": "shutdown"},
            ],
        )
        assert exit_code == 0
        response = responses[0]
        assert response["ok"]
        assert response["status"] == "completed"
        assert response["gauges"]["resilience.attempts"] > 0


class TestResilienceFlags:
    _BASE = [
        "advise",
        "--tables", "2",
        "--attributes", "5",
        "--queries", "5",
        "--budget", "0.3",
    ]

    def test_fault_rate_prints_resilience_line(self, capsys):
        exit_code = main(
            self._BASE + ["--fault-rate", "0.2", "--fault-seed", "7"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Resilience:" in output
        assert "injected faults" in output
        assert "Recommended indexes:" in output

    def test_faulty_run_matches_clean_run(self, capsys):
        main(self._BASE)
        clean = capsys.readouterr().out
        main(self._BASE + ["--fault-rate", "0.2", "--max-retries", "10"])
        faulty = capsys.readouterr().out

        def recommended(output):
            return output.split("Recommended indexes:")[1].splitlines()

        assert recommended(faulty) == recommended(clean)

    def test_zero_deadline_reports_degraded(self, capsys):
        exit_code = main(self._BASE + ["--deadline", "0"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "[degraded]" in output
        assert "note: run was degraded" in output

    def test_no_fault_rate_no_resilience_line(self, capsys):
        exit_code = main(self._BASE)
        assert exit_code == 0
        assert "Resilience:" not in capsys.readouterr().out

    def test_fault_metrics_reach_telemetry(self, capsys):
        exit_code = main(
            self._BASE + ["--fault-rate", "0.2", "--metrics"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "resilience.retries" in output
        assert "faults.injected_failures" in output

    def test_invalid_fault_rate_is_a_clean_error(self, capsys):
        exit_code = main(self._BASE + ["--fault-rate", "1.5"])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")


class TestErrorHandling:
    def test_repro_errors_exit_2_with_one_line(self, capsys):
        # A negative budget passes argparse but fails library
        # validation with a BudgetError (a ReproError).
        exit_code = main(
            [
                "advise",
                "--tables", "2",
                "--attributes", "5",
                "--queries", "5",
                "--budget", "-0.5",
            ]
        )
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "\n" == captured.err[-1]
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_exits_2(self, capsys, budget):
        exit_code = main(
            [
                "advise",
                "--tables", "2",
                "--attributes", "5",
                "--queries", "5",
                "--budget", budget,
            ]
        )
        assert exit_code == 2
        assert "finite budget" in capsys.readouterr().err

    def test_non_repro_errors_propagate(self, monkeypatch):
        import repro.cli as cli_module

        def boom(arguments):
            raise RuntimeError("programming error")

        monkeypatch.setattr(cli_module, "_advise", boom)
        with pytest.raises(RuntimeError, match="programming error"):
            main(["advise", "--budget", "0.3"])


class TestArgumentValidation:
    """Non-positive numeric flags die in argparse, not deep in a
    half-started service."""

    @pytest.mark.parametrize(
        "flag",
        [
            "--max-concurrency",
            "--queue-depth",
            "--whatif-cache-entries",
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_serve_rejects_non_positive_integers(
        self, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "positive integer" in err

    def test_non_numeric_values_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--queue-depth", "many"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestBudgetSweep:
    _BASE = [
        "advise",
        "--tables", "2",
        "--attributes", "6",
        "--queries", "6",
    ]

    def test_sweep_prints_frontier(self, capsys):
        exit_code = main(self._BASE + ["--budget-sweep", "0.1:0.5:3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "budget sweep w=0.1..0.5 (3 points)" in output
        assert "Backend what-if calls:" in output
        assert "Cost without indexes:" in output
        # One frontier row per share, in the caller's order.
        for share in ("0.1", "0.3", "0.5"):
            assert f"\n   {share}  " in output

    def test_sweep_metrics_include_gauges(self, capsys):
        exit_code = main(
            self._BASE + ["--budget-sweep", "0.1:0.5:3", "--metrics"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "sweep.backend_calls" in output
        assert "sweep.completed_points" in output

    def test_grid_ending_at_one_is_accepted(self, capsys):
        # 0.08 + width * 3 is 1.0000000000000002; the grid must end at
        # 1.0 itself, not be rejected as a share above 1.
        exit_code = main(self._BASE + ["--budget-sweep", "0.08:1.0:4"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "budget sweep w=0.08..1 (4 points)" in output

    def test_zero_deadline_prints_partial_note(self, capsys):
        exit_code = main(
            self._BASE
            + ["--budget-sweep", "0.1:0.5:3", "--deadline", "0"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "partial frontier" in output
        assert "(degraded)" in output

    @pytest.mark.parametrize(
        "spec",
        [
            "0.5:0.1:3",  # descending range
            "0.1:1.5:3",  # share above 1
            "0.1:0.5",  # missing STEPS
            "a:b:c",  # non-numeric
            "0.1:0.5:0",  # zero points
            "-0.1:0.5:3",  # negative low
            "nan:0.5:3",  # NaN low (fails every comparison)
        ],
    )
    def test_malformed_specs_are_usage_errors(self, capsys, spec):
        with pytest.raises(SystemExit) as excinfo:
            main(self._BASE + ["--budget-sweep", spec])
        assert excinfo.value.code == 2
        assert "--budget-sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0.3", "0.5"])
    def test_budget_and_sweep_are_mutually_exclusive(self, capsys, budget):
        with pytest.raises(SystemExit) as excinfo:
            main(
                self._BASE
                + ["--budget", budget, "--budget-sweep", "0.1:0.5:3"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--budget-sweep" in err
        assert "not allowed with argument --budget" in err

    def test_rejects_non_extend_algorithms(self, capsys):
        exit_code = main(
            self._BASE
            + ["--budget-sweep", "0.1:0.5:3", "--algorithm", "h2"]
        )
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "--algorithm" in captured.err
        assert captured.err.count("\n") == 1
