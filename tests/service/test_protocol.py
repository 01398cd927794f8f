"""Tests for the JSON-lines service protocol."""

from __future__ import annotations

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import AdvisorService, serve_loop
from repro.workload.generator import GeneratorConfig, generate_workload


def _strict(constant: str):
    raise ValueError(f"{constant} is not JSON")


def run_protocol(service, messages):
    """Serve ``messages``; every output line must be strict JSON."""
    lines = "\n".join(
        message if isinstance(message, str) else json.dumps(message)
        for message in messages
    )
    output = io.StringIO()
    handled = serve_loop(service, io.StringIO(lines + "\n"), output)
    responses = [
        json.loads(line, parse_constant=_strict)
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

    def test_unhashable_request_ids_do_not_wedge_admission(
        self, tiny_workload
    ):
        # Ten are as many as the default 2 + 8 admission slots: a
        # request refused at admission must not stay counted in flight.
        service = AdvisorService(tiny_workload.schema)
        service.register_workload("base", tiny_workload)
        hostile = [
            {"id": position, "op": "recommend", "workload": "base",
             "budget_share": 0.5, "request_id": {"a": position}}
            for position in range(10)
        ]
        _, responses = run_protocol(
            service,
            [
                *hostile,
                {"id": "ok", "op": "recommend", "workload": "base",
                 "budget_share": 0.5},
                {"id": "health", "op": "health"},
            ],
        )
        *rejected, recommend, health = responses
        assert len(rejected) == 10
        for response in rejected:
            assert response["code"] == "invalid_request"
            assert "request_id" in response["message"]
        assert recommend["ok"] and recommend["status"] == "completed"
        assert health["in_flight"] == 0
        assert health["completed"] == 1

    @pytest.mark.parametrize(
        "fields",
        [
            '"budget_share": NaN',
            '"budget_share": Infinity',
            '"budget_share": 1e400',
            '"budget_bytes": 1e400',
            '"budget_bytes": -Infinity',
            '"budget_share": 0.5, "deadline_s": NaN',
            '"budget_share": 0.5, "deadline_s": 1e400',
        ],
    )
    def test_non_finite_numbers_are_invalid_budgets(self, service, fields):
        line = (
            '{"id": 1, "op": "recommend", "workload": "base", '
            + fields + "}"
        )
        _, responses = run_protocol(service, [line, {"op": "health"}])
        rejected, health = responses
        assert rejected["ok"] is False
        assert rejected["code"] == "invalid_budget"
        assert health["in_flight"] == 0

    def test_stale_cost_kernel_field_is_ignored(self, service):
        """The kernel switch is gone; a client that still sends it gets
        the kernel's answer, like any unknown field."""
        request = {"op": "recommend", "workload": "base",
                   "budget_share": 0.5}
        _, responses = run_protocol(
            service,
            [request, {**request, "cost_kernel": "scalar"}],
        )
        plain, stale = responses
        assert stale["ok"]
        assert stale["indexes"] == plain["indexes"]
        assert stale["total_cost"] == plain["total_cost"]

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

    def test_overflowing_salvaged_id_is_not_echoed(self, service):
        # The salvaged decimal parses to infinity, which is no JSON.
        line = '{"id": 1' + "0" * 400 + '.5, "op":'
        _, responses = run_protocol(service, [line, {"id": 2, "op": "stats"}])
        broken, stats = responses
        assert "id" not in broken
        assert broken["code"] == "parse_error"
        assert stats["ok"] and stats["id"] == 2

    @pytest.mark.parametrize(
        "line, echoed",
        [
            ('{"id": 1, "op": "stats", "budget_bytes": ' + "9" * 5000 + "}",
             1),
            ('{"id": ' + "9" * 5000 + ', "op": "stats"}', None),
            ('{"id": ' + "9" * 5000 + ', "op":', None),
        ],
        ids=["field", "id", "salvaged-id"],
    )
    def test_integer_past_the_digit_limit_is_a_parse_error(
        self, service, line, echoed
    ):
        # json.loads raises a plain ValueError on an integer literal
        # longer than the interpreter's int-to-string digit limit.
        handled, responses = run_protocol(
            service, [line, {"id": 2, "op": "stats"}]
        )
        assert handled == 2
        broken, stats = responses
        assert broken.get("id") == echoed
        assert broken["code"] == "parse_error"
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


# ----------------------------------------------------------------------
# Hostile input: a property over arbitrary lines
# ----------------------------------------------------------------------

_CODES = frozenset({
    "parse_error",
    "invalid_request",
    "unknown_op",
    "unknown_workload",
    "overloaded",
    "draining",
    "watchdog_timeout",
    "snapshot_error",
    "invalid_budget",
    "deadline_exceeded",
})
"""The documented error codes, less ``internal_error`` (a bug)."""

_SQL = "SELECT * FROM T01 WHERE C002 = ? AND C003 = ?"
_VALID = {
    "recommend": {"workload": "w", "budget_share": 0.3},
    "sweep": {"workload": "w", "budget_sweep": "0.1:0.3:3"},
    "register": {"workload": "v", "queries": [_SQL]},
    "update": {"workload": "w", "queries": [_SQL, [_SQL, 2.0]]},
    "evict": {"workload": "v"},
    "stats": {},
    "health": {},
    "ready": {},
    "snapshot": {},
}
"""A well-formed message per op, for the fuzzer to spoil."""
_FIELDS = (
    "workload", "budget_share", "budget_bytes", "algorithm",
    "deadline_s", "candidate_width", "request_id", "stream",
    "budget_shares", "budget_sweep", "queries", "cost_kernel", "id",
)
_LITERALS = {
    "__huge__": "1e400",
    "__long__": "1" + "0" * 400 + ".5",
    "__digits__": "9" * 5000,
}
"""Placeholders for number literals ``json.dumps`` cannot write: two
that parse to infinity and an integer past the interpreter's
int-to-string digit limit."""


def _scalars():
    return st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, *_LITERALS]),
        st.text(max_size=12),
        st.sampled_from(["w", "extend", "extend+swap", "h1", _SQL,
                         "0.1:0.3:3", "vectorized", "scalar"]),
        st.integers(),
        st.sampled_from([0, 1, 4, 10**400, -(10**400)]),
        st.floats(),
        st.sampled_from([0.05, 0.3, 1.0, 1e300]),
        st.booleans(),
        st.none(),
    )


_VALUES = st.one_of(
    st.recursive(
        _scalars(),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.text(max_size=4), inner, max_size=3),
        ),
        max_leaves=6,
    ),
    # Template lists whose frequencies are hostile.
    st.lists(
        st.tuples(st.just(_SQL), _scalars()).map(list),
        min_size=1,
        max_size=2,
    ),
)


@st.composite
def _message(draw, identifier: int) -> str:
    op = draw(st.one_of(
        st.sampled_from(["recommend", "sweep", *_VALID]),
        st.text(max_size=8).filter(lambda text: text != "shutdown"),
    ))
    identifier = draw(
        st.one_of(st.just(identifier), st.sampled_from(list(_LITERALS)))
    )
    message = {"id": identifier, "op": op, **_VALID.get(op, {})}
    for name in draw(st.lists(st.sampled_from(_FIELDS), max_size=3)):
        message[name] = draw(_VALUES)
    line = json.dumps(message)
    for placeholder, literal in _LITERALS.items():
        line = line.replace(f'"{placeholder}"', literal)
    return line


@st.composite
def _lines(draw) -> list[str]:
    count = draw(st.integers(min_value=1, max_value=12))
    lines = []
    for position in range(count):
        kind = draw(st.sampled_from(["message", "truncated", "text"]))
        if kind == "message":
            lines.append(draw(_message(position)))
        elif kind == "truncated":
            # Malformed, but its leading "id" is salvaged textually.
            line = draw(_message(position))
            lines.append(line[: draw(st.integers(1, len(line) - 1))])
        else:
            lines.append(draw(
                st.text(
                    st.characters(
                        blacklist_categories=("Cs",),
                        blacklist_characters="\r\n",
                    ),
                    max_size=30,
                )
            ))
    return lines


def _streams(line: str) -> bool:
    """Whether the protocol reads ``line`` as a ``stream: true``
    request."""
    try:
        message = json.loads(line)
    except (ValueError, RecursionError):
        return False
    return isinstance(message, dict) and bool(message.get("stream"))


class TestHostileInput:
    @given(lines=_lines())
    @settings(max_examples=300, deadline=None)
    def test_every_line_gets_one_strict_json_answer(self, lines):
        workload = generate_workload(GeneratorConfig(
            tables=2, attributes_per_table=6, queries_per_table=4, seed=7,
        ))
        service = AdvisorService(
            workload.schema,
            watchdog_interval_s=0,
            default_deadline_s=30.0,
        )
        service.register_workload("w", workload)
        requests = [line for line in lines if line.strip()]
        text = "\n".join([*lines, '{"id": "last", "op": "health"}'])
        output = io.StringIO()
        serve_loop(service, io.StringIO(text + "\n"), output)
        records = [
            json.loads(line, parse_constant=_strict)
            for line in output.getvalue().split("\n")
            if line
        ]
        *answers, health = [
            record for record in records if record.get("op") != "event"
        ]
        assert len(answers) == len(requests)
        assert health["ok"] and health["in_flight"] == 0
        for answer in answers:
            assert answer["ok"] or answer["code"] in _CODES, answer
        # Lines run one after another, so a line's events come right
        # before its answer.
        streams = iter(_streams(line) for line in requests)
        events = 0
        for record in records[:-1]:
            if record.get("op") == "event":
                events += 1
                continue
            assert next(streams) or events == 0, record
            events = 0

    def test_oversized_sweep_is_refused_and_the_daemon_lives(self):
        """A 30-digit step count is an ``invalid_request``, refused
        before any grid is built, and the next line is answered."""
        workload = generate_workload(GeneratorConfig(
            tables=2, attributes_per_table=6, queries_per_table=4, seed=7,
        ))
        service = AdvisorService(workload.schema, watchdog_interval_s=0)
        service.register_workload("w", workload)
        lines = [
            json.dumps({
                "id": "huge", "op": "sweep", "workload": "w",
                "budget_sweep": "0.1:0.2:" + "9" * 30,
            }),
            '{"id": "after", "op": "stats"}',
        ]
        output = io.StringIO()
        serve_loop(service, io.StringIO("\n".join(lines) + "\n"), output)
        huge, after = [
            json.loads(line, parse_constant=_strict)
            for line in output.getvalue().split("\n")
            if line
        ]
        assert huge["id"] == "huge" and not huge["ok"]
        assert huge["code"] == "invalid_request"
        assert after["id"] == "after" and after["ok"]
