"""Fault-injection stress for the service path.

Mirrors the CI stress job's contract: under seeded transient backend
failures the service must (a) return the exact same configurations as a
fault-free run (retries + analytic fallback make faults invisible to
the selection), (b) never hang a request past its deadline, and (c)
surface breaker state through the ``service.*`` gauges.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.advisor import IndexAdvisor
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource
from repro.resilience import (
    FaultInjectingCostSource,
    ResiliencePolicy,
)
from repro.service import AdvisorService, RecommendRequest

FAULT_RATE = float(os.environ.get("REPRO_FAULT_RATE", "0.2"))


def faulty_service(workload, seed, **kwargs):
    source = FaultInjectingCostSource(
        AnalyticalCostSource(CostModel(workload.schema)),
        failure_rate=FAULT_RATE,
        seed=seed,
    )
    service = AdvisorService(
        workload.schema,
        cost_source=source,
        resilience=ResiliencePolicy(
            max_retries=5, backoff_base_s=0.0
        ),
        **kwargs,
    )
    service.register_workload("w", workload)
    return service, source


class TestFaultyService:
    def test_faulty_results_match_fault_free(self, small_workload):
        advisor = IndexAdvisor(small_workload.schema)
        expected = advisor.recommend(
            small_workload, budget_share=0.3, algorithm="extend"
        ).result.configuration_signature()
        service, source = faulty_service(small_workload, seed=11)
        with service:
            responses = [
                service.recommend(
                    RecommendRequest(workload="w", budget_share=0.3)
                )
                for _ in range(3)
            ]
        assert source.statistics.injected_failures > 0
        for response in responses:
            assert response.status == "completed"
            assert (
                response.result.configuration_signature() == expected
            )

    def test_concurrent_faulty_requests_do_not_hang_deadlines(
        self, small_workload
    ):
        """Every request under faults + a tight deadline comes back
        promptly — degraded at worst, never stuck or raising."""
        deadline_s = 2.0
        service, _ = faulty_service(
            small_workload,
            seed=23,
            max_concurrency=2,
            queue_depth=6,
        )
        request = RecommendRequest(
            workload="w", budget_share=0.4, deadline_s=deadline_s
        )
        started = time.monotonic()
        with service:
            with ThreadPoolExecutor(max_workers=4) as pool:
                responses = list(
                    pool.map(
                        lambda _: service.recommend(request), range(6)
                    )
                )
        elapsed = time.monotonic() - started
        assert all(
            response.status in ("completed", "degraded")
            for response in responses
        )
        # Generous slack over 6 requests × 2 s deadlines on 2 workers:
        # the point is "no unbounded hang", not precise scheduling.
        assert elapsed < 6 * deadline_s + 30.0
        for response in responses:
            assert (
                response.wall_seconds + response.queue_seconds
                < deadline_s + 30.0
            )

    def test_breaker_state_visible_in_service_gauges(
        self, small_workload
    ):
        service, _ = faulty_service(small_workload, seed=5)
        with service:
            response = service.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
            assert "service.breaker_state" in response.gauges
            assert "service.breaker_state" in service.gauges()
            assert response.gauges["resilience.retries"] >= 0
            assert (
                response.gauges["resilience.attempts"]
                >= response.gauges["resilience.retries"]
            )
