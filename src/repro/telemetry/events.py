"""Structured step events — the audit log of Algorithm 1 decisions.

Every selection step of the constructive algorithms emits one *chosen*
event (and optionally events for the best rejected runner-up moves), so
a finished run can be replayed and audited: the sequence of
``(cost_delta, memory_delta)`` of the chosen events reconstructs the
efficient frontier the run reported, and the per-step what-if deltas
show where the optimizer budget went.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.exceptions import TelemetryError

__all__ = ["StepEvent"]

_EVENT_TYPE = "step"


@dataclass(frozen=True)
class StepEvent:
    """One candidate decision of a selection algorithm.

    ``chosen`` events carry the exact before/after cost and memory of the
    applied step; ``rejected`` events carry the *estimated* benefit and
    memory delta the candidate would have had (their ``cost_before`` etc.
    are ``None`` — the step never happened).
    """

    algorithm: str
    step_number: int
    action: str
    """The :class:`~repro.core.steps.StepKind` value (or ``"swap"``)."""

    table: str
    index_before: tuple[int, ...] | None
    index_after: tuple[int, ...] | None
    chosen: bool
    benefit: float
    """Cost reduction: exact for chosen steps, estimated for rejected."""

    memory_delta: int
    ratio: float
    """Benefit per additional byte — the Step 3 selection criterion."""

    cost_before: float | None = None
    cost_after: float | None = None
    memory_before: int | None = None
    memory_after: int | None = None
    whatif_calls: int | None = None
    """Backend what-if calls consumed during this step."""

    cache_hits: int | None = None
    """What-if cache hits during this step."""

    candidates_considered: int | None = None
    """How many moves were scored before this decision."""

    def to_dict(self) -> dict:
        """Plain-dict record (with ``"type": "step"``) for JSON sinks."""
        # Every field is a scalar or a tuple of ints (listed below), so
        # a shallow copy equals ``dataclasses.asdict`` without its
        # recursive deep copy: served requests stream every event.
        record = {
            field.name: getattr(self, field.name) for field in fields(self)
        }
        record["type"] = _EVENT_TYPE
        record["index_before"] = (
            list(self.index_before) if self.index_before else None
        )
        record["index_after"] = (
            list(self.index_after) if self.index_after else None
        )
        return record

    @classmethod
    def from_dict(cls, record: dict) -> StepEvent:
        """Rebuild an event from a sink record (round-trip of to_dict)."""
        if record.get("type") != _EVENT_TYPE:
            raise TelemetryError(
                f"not a step-event record: type={record.get('type')!r}"
            )
        payload = {
            key: value for key, value in record.items() if key != "type"
        }
        for key in ("index_before", "index_after"):
            if payload.get(key) is not None:
                payload[key] = tuple(payload[key])
        return cls(**payload)
