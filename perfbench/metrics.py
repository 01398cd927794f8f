"""Metric names and units; ``END_TO_END`` and ``PER_LAYER`` are the
lists of ``BENCHMARK.json``."""

from __future__ import annotations

import math

END_TO_END = {
    "setup_s": "s",
    "recommend_p50_ref_s": "ref_s",
    "recommend_p90_ref_s": "ref_s",
    "whatif_calls": "count",
    "relative_cost": "ratio",
    "peak_rss_mb": "MB",
}
"""Printed by every untraced run: each applies to every workload and is
never 0."""

WALL_CLOCK = {
    "recommend_p50_s": "s",
    "recommend_p90_s": "s",
    "speed": "ratio",
}
"""Printed beside the result line by every untraced run: the recommend
latencies in wall-clock seconds, and the machine's mean speed while
they ran, which ``speed.SpeedProbe`` multiplies them by to give
reference seconds."""

SERVICE_ONLY = {
    "sweep_p50_s": "s",
    "update_p50_s": "s",
}
"""Untraced serve-drift metrics printed beside the result line."""

PER_LAYER = {
    "sql.parse_s": "s",
    "sql.templates": "count",
    "candidates.s": "s",
    "candidates.count": "count",
    "extend.s": "s",
    "extend.steps": "count",
    "extend.whatif_calls": "count",
    "swap.s": "s",
    "swap.self_s": "s",
    "swap.pool": "count",
    "swap.swaps": "count",
    "swap.whatif_calls": "count",
    "report.s": "s",
    "report.indexes": "count",
    "report.whatif_requests": "count",
    "whatif.requests": "count",
    "whatif.hit_rate": "ratio",
    "whatif.self_s": "s",
    "whatif.cache_entries": "count",
    "resilience.calls": "count",
    "resilience.self_s": "s",
    "resilience.retries": "count",
    "resilience.fallback_calls": "count",
    "kernel.busy_s": "s",
    "kernel.batches": "count",
    "kernel.pairs_per_batch": "count",
    "sweep.s": "s",
    "sweep.backend_calls": "count",
    "service.wall_s": "s",
    "service.queue_s": "s",
    "service.overhead_s": "s",
    "service.warm_share": "ratio",
    "registry.invalidated": "count",
    "coalescer.idle_share": "ratio",
    "coalescer.dedup_rate": "ratio",
    "trace.unaccounted_share": "ratio",
    "trace.overhead_s": "s",
}
"""Printed by every traced run; a layer a workload never enters reads 0.
Times and counts are per request of the kind the layer serves (per
recommend, per update for ``sql.*`` and ``registry.*``, per sweep for
``sweep.*``)."""


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (the largest value for ``share`` = 1)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(share * len(ordered), 9)))
    return ordered[rank - 1]
