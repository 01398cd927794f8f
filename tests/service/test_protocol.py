"""Tests for the JSON-lines service protocol."""

from __future__ import annotations

import io
import json

import pytest

from repro.service import AdvisorService, serve_loop


def run_protocol(service, messages):
    lines = "\n".join(
        message if isinstance(message, str) else json.dumps(message)
        for message in messages
    )
    output = io.StringIO()
    handled = serve_loop(service, io.StringIO(lines + "\n"), output)
    responses = [
        json.loads(line)
        for line in output.getvalue().splitlines()
        if line
    ]
    return handled, responses


@pytest.fixture
def service(tiny_workload):
    service = AdvisorService(
        tiny_workload.schema, max_concurrency=1, queue_depth=2
    )
    service.register_workload("base", tiny_workload)
    return service


REGISTER = {
    "id": 1,
    "op": "register",
    "workload": "w",
    "queries": [
        "SELECT * FROM ORDERS WHERE ID = ?",
        ["SELECT * FROM ORDERS WHERE CUSTOMER = ? AND REGION = ?", 5.0],
    ],
}


class TestOps:
    def test_full_lifecycle(self, service):
        handled, responses = run_protocol(
            service,
            [
                REGISTER,
                {
                    "id": 2,
                    "op": "recommend",
                    "workload": "w",
                    "budget_share": 0.5,
                },
                {
                    "id": 3,
                    "op": "update",
                    "workload": "w",
                    "queries": ["SELECT * FROM ORDERS WHERE STATUS = ?"],
                },
                {"id": 4, "op": "evict", "workload": "w"},
                {"id": 5, "op": "stats"},
                {"id": 6, "op": "shutdown"},
            ],
        )
        assert handled == 6
        register, recommend, update, evict, stats, shutdown = responses
        assert register == {
            "id": 1,
            "ok": True,
            "op": "register",
            "workload": "w",
            "version": 1,
            "queries": 2,
        }
        assert recommend["ok"] and recommend["status"] == "completed"
        assert recommend["indexes"]
        assert recommend["gauges"]["service.completed"] == 1
        assert update["version"] == 2
        assert evict["invalidated_cache_entries"] >= 0
        assert stats["workloads"] == ["base"]
        assert stats["gauges"]["service.admitted"] == 1
        assert shutdown == {"id": 6, "ok": True, "op": "shutdown"}

    def test_streaming_recommend_emits_events_before_response(
        self, service
    ):
        _, responses = run_protocol(
            service,
            [
                {
                    "id": 7,
                    "op": "recommend",
                    "workload": "base",
                    "budget_share": 0.5,
                    "stream": True,
                },
                {"op": "shutdown"},
            ],
        )
        events = [r for r in responses if r.get("op") == "event"]
        finals = [r for r in responses if r.get("op") == "recommend"]
        assert events and len(finals) == 1
        assert responses.index(events[-1]) < responses.index(finals[0])
        assert all(event["type"] == "step" for event in events)
        assert all(event["id"] == 7 for event in events)
        assert finals[0]["request_id"] == events[0]["request_id"]

    def test_shutdown_stops_processing(self, service):
        handled, responses = run_protocol(
            service,
            [
                {"op": "shutdown"},
                {"op": "stats"},  # never reached
            ],
        )
        assert handled == 1
        assert len(responses) == 1


class TestErrors:
    def test_errors_do_not_kill_the_loop(self, service):
        handled, responses = run_protocol(
            service,
            [
                "this is not json",
                {"id": 2, "op": "frobnicate"},
                {"id": 3, "op": "recommend", "workload": "nope",
                 "budget_share": 0.5},
                {"id": 4, "op": "register", "workload": "w"},
                {"id": 5, "op": "recommend", "workload": "base",
                 "budget_share": 0.5, "bogus_field": 1},
                {"id": 6, "op": "recommend", "workload": "base"},
                {"id": 7, "op": "stats"},
                {"op": "shutdown"},
            ],
        )
        assert handled == 8
        bad_json, unknown_op, unknown_workload, missing_queries, \
            bogus, no_budget, stats, _ = responses
        assert not bad_json["ok"]
        assert bad_json["error"] == "JSONDecodeError"
        assert bad_json["code"] == "parse_error"
        assert not unknown_op["ok"]
        assert unknown_op["error"] == "UnknownOperationError"
        assert unknown_op["code"] == "unknown_op"
        assert unknown_op["id"] == 2
        assert unknown_workload["error"] == "UnknownWorkloadError"
        assert unknown_workload["code"] == "unknown_workload"
        assert missing_queries["error"] == "ServiceError"
        assert missing_queries["code"] == "invalid_request"
        # Unknown fields are ignored (forward compatibility of the
        # line protocol): the request still runs.
        assert bogus["ok"]
        assert no_budget["error"] == "BudgetError"
        assert no_budget["code"] == "invalid_budget"
        assert stats["ok"]

    def test_hostile_template_entries_do_not_kill_the_loop(self, service):
        sql = "SELECT * FROM ORDERS WHERE ID = ?"
        entries = [
            [sql],
            [sql, 1.0, 2.0],
            [sql, float("nan")],
            [sql, float("inf")],
            [sql, "5"],
            [sql, None],
            7,
        ]
        lines = [
            {"id": position, "op": "register", "workload": "w",
             "queries": [sql, entry]}
            for position, entry in enumerate(entries)
        ]
        handled, responses = run_protocol(
            service,
            [
                *lines,
                {"id": "u", "op": "update", "workload": "base",
                 "queries": [[sql]]},
                {"id": "r", "op": "recommend", "workload": "base",
                 "budget_share": 0.5},
                {"id": "s", "op": "stats"},
            ],
        )
        assert handled == len(entries) + 3
        *rejected, recommend, stats = responses
        assert len(rejected) == len(entries) + 1
        for response in rejected:
            assert response["ok"] is False
            assert response["error"] == "WorkloadError"
            assert response["code"] == "invalid_request"
        assert "template entry 1 " in rejected[0]["message"]
        assert "finite frequency" in rejected[2]["message"]
        assert "template entry 0 " in rejected[-1]["message"]
        assert recommend["ok"] and recommend["total_cost"] > 0
        assert stats["workloads"] == ["base"]

    def test_bad_candidate_width_is_rejected_before_admission(
        self, service
    ):
        _, responses = run_protocol(
            service,
            [
                {"id": 1, "op": "recommend", "workload": "base",
                 "budget_share": 0.5, "algorithm": "extend+swap",
                 "candidate_width": 0},
                {"id": 2, "op": "stats"},
            ],
        )
        rejected, stats = responses
        assert rejected == {
            "id": 1,
            "ok": False,
            "error": "IndexDefinitionError",
            "code": "invalid_request",
            "message": "candidate_width must be a positive integer, got 0",
        }
        assert stats["gauges"]["service.admitted"] == 0
        assert stats["gauges"].get("whatif.calls", 0) == 0

    def test_too_deeply_nested_line_is_a_parse_error(self, service):
        # The JSON parser raises RecursionError, not JSONDecodeError,
        # on nesting this deep.
        handled, responses = run_protocol(
            service, ["[" * 100_000, {"id": 2, "op": "stats"}]
        )
        assert handled == 2
        deep, stats = responses
        assert deep["ok"] is False
        assert deep["code"] == "parse_error"
        assert stats["ok"] and stats["id"] == 2

    def test_non_object_line_is_an_error(self, service):
        _, responses = run_protocol(
            service, ["[1,2,3]", {"op": "shutdown"}]
        )
        assert responses[0] == {
            "ok": False,
            "error": "ServiceError",
            "code": "invalid_request",
            "message": "each input line must be a JSON object",
        }

    def test_loop_closes_service_on_end_of_input(self, service):
        handled, _ = run_protocol(service, [{"op": "stats"}])
        assert handled == 1
        from repro.exceptions import ServiceError
        from repro.service import RecommendRequest

        with pytest.raises(ServiceError):
            service.submit(
                RecommendRequest(workload="base", budget_share=0.5)
            )
