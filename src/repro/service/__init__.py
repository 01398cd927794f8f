"""Advisor-as-a-service: a concurrent, deadline-aware daemon.

The :class:`AdvisorService` keeps compiled workloads and the shared
what-if cache resident across requests, and
serves concurrent ``recommend`` requests through a bounded thread-pool
executor with fail-fast admission control.  The JSON-lines protocol in
:mod:`repro.service.protocol` exposes the same surface over
stdin/stdout (``python -m repro serve``) without opening any sockets.

Crash tolerance lives in :mod:`repro.service.durability` (versioned,
checksummed, atomically-written snapshots restored at startup —
:class:`RestoreReport` says what a restore found) and is exercised by
the seeded chaos harness in :mod:`repro.service.chaos`
(``python -m repro.service.chaos``).
"""

from repro.service.daemon import (
    AdvisorService,
    ServiceStatistics,
    ServiceTicket,
)
from repro.service.durability import RestoreReport
from repro.service.registry import (
    WorkloadRegistration,
    WorkloadRegistry,
)
from repro.service.request import (
    RecommendRequest,
    RecommendResponse,
    SweepRequest,
    SweepResponse,
)
from repro.service.streams import EventStream, StreamSink
from repro.service.protocol import error_code, serve_loop

__all__ = [
    "AdvisorService",
    "EventStream",
    "RecommendRequest",
    "RecommendResponse",
    "RestoreReport",
    "ServiceStatistics",
    "ServiceTicket",
    "StreamSink",
    "SweepRequest",
    "SweepResponse",
    "WorkloadRegistration",
    "WorkloadRegistry",
    "error_code",
    "serve_loop",
]
