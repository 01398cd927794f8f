"""Network-free JSON-lines protocol for the advisor service.

``python -m repro serve`` runs :func:`serve_loop` over stdin/stdout:
one JSON object per input line, one (or more, when streaming) JSON
objects per output line.  No sockets are opened — transport is the
caller's problem (pipes, ssh, a supervisor), which keeps the daemon
trivially sandboxable and testable.

Operations (``"op"`` key)::

    {"op": "register", "workload": "w1", "queries": ["SELECT ...", ...]}
    {"op": "update",   "workload": "w1", "queries": [["SELECT ...", 5.0]]}
    {"op": "evict",    "workload": "w1"}
    {"op": "recommend", "workload": "w1", "budget_share": 0.3,
     "algorithm": "extend", "deadline_s": 2.0, "stream": true}
    {"op": "sweep",     "workload": "w1", "budget_shares": [0.1, 0.3],
     "stream": true}                      # or "budget_sweep": "0.1:1.0:10"
    {"op": "stats"}
    {"op": "health"}
    {"op": "ready"}
    {"op": "snapshot"}
    {"op": "shutdown"}

``queries`` entries are SQL template strings or ``[sql, frequency]``
pairs with a positive finite frequency; any other entry is an
``invalid_request`` naming its position.  Every response carries
``"ok"`` plus an echoed ``"id"`` when the request had one — including
error responses: even a line that does not parse as JSON has its
``"id"`` salvaged textually when possible, so request/response
correlation survives malformed input.  With
``"stream": true`` a recommend emits each step event as
``{"ok": true, "op": "event", ...}`` lines before the final response,
so a client sees the construction frontier live.

Errors never kill the loop: they come back as
``{"ok": false, "error": <class>, "code": <stable-tag>, "message": ...}``.
``error`` is the Python class name (informative, may change);
``code`` is the machine-stable tag clients should switch on::

    parse_error        line was not valid JSON (or nested too deep)
    invalid_request    parsed, but the request is malformed or invalid
    unknown_op         the "op" value is not an operation the daemon speaks
    unknown_workload   referenced workload name is not registered
    overloaded         admission queue full (carries "retry_after_s")
    draining           service is shutting down gracefully
    watchdog_timeout   the watchdog cancelled the request
    snapshot_error     a durability snapshot failed
    invalid_budget     the memory budget is invalid
    deadline_exceeded  an explicit deadline check fired
    internal_error     anything else (a bug — report it)

``overloaded`` errors carry ``retry_after_s``, the service's estimate
of seconds until an admission slot frees up; well-behaved clients
sleep that long before retrying.

A client that disconnects (broken pipe on our stdout) ends the loop
gracefully: in-flight streamed requests are still driven to their
terminal outcome (so service counters stay consistent), nothing is
emitted to the dead pipe, and the service shuts down as usual.
"""

from __future__ import annotations

import json
import re
from typing import IO

from repro.exceptions import (
    BudgetError,
    DeadlineExceededError,
    ReproError,
    ServiceDrainingError,
    ServiceError,
    ServiceOverloadedError,
    SnapshotError,
    UnknownOperationError,
    UnknownWorkloadError,
    WatchdogTimeoutError,
)
from repro.core.sweep import parse_budget_sweep
from repro.service.request import RecommendRequest, SweepRequest

__all__ = ["error_code", "serve_loop"]

_REQUEST_FIELDS = (
    "workload",
    "budget_share",
    "budget_bytes",
    "algorithm",
    "cost_kernel",
    "deadline_s",
    "candidate_width",
    "request_id",
)

_SWEEP_FIELDS = (
    "workload",
    "budget_shares",
    "cost_kernel",
    "deadline_s",
    "request_id",
)

# Most-derived classes first; resolution walks the error's MRO, so a
# new ServiceError subclass automatically degrades to "invalid_request"
# until it gets a code of its own.
_CODE_BY_TYPE: dict[type, str] = {
    json.JSONDecodeError: "parse_error",
    UnknownOperationError: "unknown_op",
    UnknownWorkloadError: "unknown_workload",
    ServiceOverloadedError: "overloaded",
    ServiceDrainingError: "draining",
    WatchdogTimeoutError: "watchdog_timeout",
    SnapshotError: "snapshot_error",
    BudgetError: "invalid_budget",
    DeadlineExceededError: "deadline_exceeded",
    TypeError: "invalid_request",
    ReproError: "invalid_request",
}

# Textual "id" salvage for lines that fail JSON parsing: string or
# numeric values only, good enough to correlate an error response with
# the (malformed) request that caused it.
_ID_SALVAGE = re.compile(
    r'"id"\s*:\s*("(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?)'
)


class _ClientDisconnected(Exception):
    """Our output pipe is gone; stop serving (module-internal)."""


def error_code(error: BaseException) -> str:
    """The stable protocol ``code`` tag for an exception."""
    for cls in type(error).__mro__:
        code = _CODE_BY_TYPE.get(cls)
        if code is not None:
            return code
    return "internal_error"


def _error_payload(error: BaseException) -> dict:
    payload = {
        "ok": False,
        "error": type(error).__name__,
        "code": error_code(error),
        "message": str(error),
    }
    retry_after = getattr(error, "retry_after_s", None)
    if retry_after is not None:
        payload["retry_after_s"] = retry_after
    return payload


def _salvage_id(line: str):
    match = _ID_SALVAGE.search(line)
    if match is None:
        return None
    try:
        return json.loads(match.group(1))
    except json.JSONDecodeError:  # pragma: no cover - regex is stricter
        return None


def _parse(line: str):
    """``json.loads``, except that nesting too deep for the parser is
    a ``JSONDecodeError`` like any other unparseable line (the parser
    itself raises ``RecursionError``)."""
    try:
        return json.loads(line)
    except RecursionError:
        raise json.JSONDecodeError(
            "nesting too deep to parse", line, 0
        ) from None


def _queries(message: dict) -> list:
    queries = message.get("queries")
    if not isinstance(queries, list) or not queries:
        raise ServiceError(
            f"{message.get('op')} needs a non-empty 'queries' list"
        )
    return [
        tuple(entry) if isinstance(entry, list) else entry
        for entry in queries
    ]


def _workload_name(message: dict) -> str:
    name = message.get("workload")
    if not isinstance(name, str) or not name:
        raise ServiceError(
            f"{message.get('op')} needs a 'workload' name"
        )
    return name


def _recommend_request(message: dict) -> RecommendRequest:
    fields = {
        key: message[key]
        for key in _REQUEST_FIELDS
        if message.get(key) is not None
    }
    fields["workload"] = _workload_name(message)
    return RecommendRequest(**fields)


def _sweep_request(message: dict) -> SweepRequest:
    fields = {
        key: message[key]
        for key in _SWEEP_FIELDS
        if message.get(key) is not None
    }
    spec = message.get("budget_sweep")
    if spec is not None:
        if fields.get("budget_shares"):
            raise ServiceError(
                "pass either 'budget_shares' or 'budget_sweep', not both"
            )
        if not isinstance(spec, str):
            raise ServiceError(
                "'budget_sweep' must be a 'low:high:steps' string"
            )
        fields["budget_shares"] = parse_budget_sweep(spec)
    shares = fields.get("budget_shares")
    if isinstance(shares, list):
        fields["budget_shares"] = tuple(shares)
    elif shares is None:
        raise ServiceError(
            "sweep needs 'budget_shares' (a list of shares) or "
            "'budget_sweep' ('low:high:steps')"
        )
    fields["workload"] = _workload_name(message)
    return SweepRequest(**fields)


def _handle(service, message: dict, emit) -> bool:
    """Process one message; returns False on shutdown."""
    op = message.get("op")
    if op == "register":
        registration = service.register_workload(
            _workload_name(message), _queries(message)
        )
        emit(
            {
                "ok": True,
                "op": op,
                "workload": registration.name,
                "version": registration.version,
                "queries": len(registration.workload),
            }
        )
    elif op == "update":
        registration = service.update_workload(
            _workload_name(message), _queries(message)
        )
        emit(
            {
                "ok": True,
                "op": op,
                "workload": registration.name,
                "version": registration.version,
                "queries": len(registration.workload),
            }
        )
    elif op == "evict":
        name = _workload_name(message)
        invalidated = service.evict_workload(name)
        emit(
            {
                "ok": True,
                "op": op,
                "workload": name,
                "invalidated_cache_entries": invalidated,
            }
        )
    elif op == "recommend":
        request = _recommend_request(message)
        if message.get("stream"):
            ticket = service.submit(request)
            try:
                for event in ticket.stream.events():
                    emit({"ok": True, "op": "event", **event})
            except _ClientDisconnected:
                # Nobody left to tell, but the admitted request must
                # still reach its terminal outcome before we tear the
                # service down, or its slot accounting would be torn.
                ticket.outcome()
                raise
            response = ticket.result()
        else:
            response = service.recommend(request)
        emit({"ok": True, "op": op, **response.to_dict()})
    elif op == "sweep":
        request = _sweep_request(message)
        if message.get("stream"):
            ticket = service.submit_sweep(request)
            try:
                for event in ticket.stream.events():
                    emit({"ok": True, "op": "event", **event})
            except _ClientDisconnected:
                ticket.outcome()
                raise
            response = ticket.result()
        else:
            response = service.sweep(request)
        emit({"ok": True, "op": op, **response.to_dict()})
    elif op == "stats":
        emit(
            {
                "ok": True,
                "op": op,
                "workloads": list(service.workloads()),
                "gauges": service.gauges(),
            }
        )
    elif op == "health":
        emit({"ok": True, "op": op, **service.health()})
    elif op == "ready":
        emit({"ok": True, "op": op, **service.ready()})
    elif op == "snapshot":
        path = service.snapshot_now()
        emit(
            {
                "ok": True,
                "op": op,
                "path": str(path),
                "sequence": service.statistics.snapshot_sequence,
            }
        )
    elif op == "shutdown":
        emit({"ok": True, "op": op})
        return False
    else:
        raise UnknownOperationError(f"unknown op {op!r}")
    return True


def serve_loop(
    service, input_stream: IO[str], output_stream: IO[str]
) -> int:
    """Serve JSON-lines requests until shutdown or end of input.

    Returns the number of messages handled.  The service is closed on
    exit (draining in-flight requests), whatever ended the loop — end
    of input, a ``shutdown`` op, or the client's disconnect.
    """
    handled = 0
    try:
        for line in input_stream:
            line = line.strip()
            if not line:
                continue
            handled += 1
            correlation = None
            emit = _emitter(output_stream, lambda: correlation)
            try:
                try:
                    message = _parse(line)
                    if not isinstance(message, dict):
                        raise ServiceError(
                            "each input line must be a JSON object"
                        )
                    correlation = message.get("id")
                    if not _handle(service, message, emit):
                        break
                except json.JSONDecodeError as error:
                    correlation = _salvage_id(line)
                    emit(_error_payload(error))
                except (ReproError, TypeError) as error:
                    # TypeError covers unexpected RecommendRequest
                    # fields; anything else is a genuine bug and
                    # should crash loud.
                    emit(_error_payload(error))
            except _ClientDisconnected:
                break
    finally:
        service.close()
    return handled


def _emitter(output_stream: IO[str], correlation):
    def emit(payload: dict) -> None:
        identifier = correlation()
        if identifier is not None:
            payload = {"id": identifier, **payload}
        try:
            json.dump(payload, output_stream, separators=(",", ":"))
            output_stream.write("\n")
            output_stream.flush()
        except (BrokenPipeError, ValueError) as error:
            # BrokenPipeError: the reader hung up.  ValueError: the
            # stream object was closed under us.  Either way the
            # client is gone.
            raise _ClientDisconnected(str(error)) from error

    return emit
