"""Tests for the concurrent advisor service daemon."""

from __future__ import annotations

import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.advisor import IndexAdvisor
from repro.cost.kernel import VectorizedCostSource
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource
from repro.exceptions import (
    ExperimentError,
    IndexDefinitionError,
    ServiceError,
    ServiceOverloadedError,
    UnknownWorkloadError,
)
from repro.resilience import FaultInjectingCostSource
from repro.service import (
    AdvisorService,
    RecommendRequest,
    SweepRequest,
)
from repro.workload.query import Workload

_JOIN_S = 30.0
_OBSERVABILITY_DOC = (
    Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
)


def _documented_metrics() -> list[re.Pattern]:
    """One pattern per metric named in the first column of a ``Metric``
    table of docs/OBSERVABILITY.md; a ``<name>`` placeholder matches
    one dotted segment."""
    patterns = []
    in_metric_table = False
    for line in _OBSERVABILITY_DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            in_metric_table = False
            continue
        first_cell = line.split("|")[1].strip()
        if first_cell == "Metric":
            in_metric_table = True
        elif in_metric_table:
            for name in re.findall(r"`([^`]+)`", first_cell):
                parts = re.split(r"<[^>]+>", name)
                patterns.append(
                    re.compile("[^.]+".join(map(re.escape, parts)))
                )
    return patterns


@pytest.fixture
def service(small_workload):
    with AdvisorService(
        small_workload.schema, max_concurrency=2, queue_depth=4
    ) as service:
        service.register_workload("w", small_workload)
        yield service


class _GateSource:
    """Scalar analytic source whose every call waits for an event."""

    def __init__(self, schema, gate: threading.Event) -> None:
        self._inner = AnalyticalCostSource(CostModel(schema))
        self._gate = gate

    def query_cost(self, query, index):
        self._gate.wait()
        return self._inner.query_cost(query, index)

    def maintenance_cost(self, query, index):
        self._gate.wait()
        return self._inner.maintenance_cost(query, index)

    def multi_index_cost(self, query, indexes):
        self._gate.wait()
        return self._inner.multi_index_cost(query, indexes)


class _HeldKernel(VectorizedCostSource):
    """The vectorized kernel whose ``pair_costs`` calls (the batch
    method the facade prices every column through) wait on ``gate``
    once the first ``release_after`` calls have passed."""

    def __init__(self, schema, gate: threading.Event, release_after):
        super().__init__(schema)
        self._gate = gate
        self._release_after = release_after
        self._lock = threading.Lock()
        self.calls = 0

    def pair_costs(self, pairs):
        with self._lock:
            self.calls += 1
            held = self.calls > self._release_after
        if held:
            assert self._gate.wait(timeout=_JOIN_S)
        return super().pair_costs(pairs)


class TestConcurrencyIdentity:
    def test_concurrent_results_match_serial_advisor(
        self, small_workload
    ):
        """N threads of mixed requests select bit-identical
        configurations to one-shot serial ``IndexAdvisor.recommend``."""
        mix = [
            ("extend", 0.2),
            ("extend", 0.4),
            ("h2", 0.3),
            ("h4", 0.3),
            ("extend", 0.2),
            ("h2", 0.3),
        ]
        serial = {}
        for algorithm, share in set(mix):
            advisor = IndexAdvisor(small_workload.schema)
            serial[(algorithm, share)] = advisor.recommend(
                small_workload,
                budget_share=share,
                algorithm=algorithm,
            ).result.configuration_signature()

        with AdvisorService(
            small_workload.schema, max_concurrency=4, queue_depth=8
        ) as service:
            service.register_workload("w", small_workload)
            with ThreadPoolExecutor(max_workers=len(mix)) as pool:
                responses = list(
                    pool.map(
                        lambda spec: service.recommend(
                            RecommendRequest(
                                workload="w",
                                budget_share=spec[1],
                                algorithm=spec[0],
                            )
                        ),
                        mix,
                    )
                )
        for spec, response in zip(mix, responses):
            assert (
                response.result.configuration_signature()
                == serial[spec]
            )
            assert response.status == "completed"

    def test_concurrent_service_matches_serial_advisor(
        self, small_workload
    ):
        """Concurrent cold requests on distinct registrations select
        the serial advisor's exact configuration and cost, even though
        the backend loses the first pricing batch: one resilient retry
        heals it for every request, without the fallback."""
        serial = IndexAdvisor(small_workload.schema).recommend(
            small_workload, budget_share=0.3, algorithm="extend"
        ).result
        flaky = FaultInjectingCostSource(
            VectorizedCostSource(small_workload.schema), script=["fail"]
        )
        with AdvisorService(
            small_workload.schema,
            max_concurrency=4,
            queue_depth=8,
            cost_source=flaky,
        ) as service:
            # Distinct registrations so every request prices cold
            # instead of being answered from a warm store.
            for position in range(4):
                service.register_workload(
                    f"w{position}", small_workload
                )
            tickets = [
                service.submit(
                    RecommendRequest(
                        workload=f"w{position}", budget_share=0.3
                    )
                )
                for position in range(4)
            ]
            responses = [
                ticket.result(timeout_s=_JOIN_S) for ticket in tickets
            ]
            resilient, _ = service.kernel_stacks.stack("vectorized")
        assert flaky.statistics.injected_failures == 1
        assert resilient.statistics.retries == 1
        assert resilient.statistics.fallback_calls == 0
        for response in responses:
            assert response.status == "completed"
            assert (
                response.result.configuration_signature()
                == serial.configuration_signature()
            )
            assert response.result.total_cost == serial.total_cost

    def test_repeated_warm_request_is_identical(self, service):
        cold = service.recommend(
            RecommendRequest(workload="w", budget_share=0.3)
        )
        warm = service.recommend(
            RecommendRequest(workload="w", budget_share=0.3)
        )
        assert not cold.warm
        assert warm.warm
        assert (
            warm.result.configuration_signature()
            == cold.result.configuration_signature()
        )


class TestWarmResidency:
    def test_warm_tables_reused_across_requests(self, service):
        cold = service.recommend(
            RecommendRequest(workload="w", budget_share=0.3)
        )
        warm = service.recommend(
            RecommendRequest(workload="w", budget_share=0.3)
        )
        assert not cold.warm
        assert cold.gauges["whatif.calls"] > 0
        # The warm run needs zero backend what-if calls: every lookup
        # is a hit in the resident what-if cache.
        assert warm.warm
        assert warm.gauges["whatif.calls"] == 0
        assert warm.gauges["whatif.hit_rate"] == 1.0
        assert warm.result.total_cost == cold.result.total_cost
        assert service.statistics.warm_requests == 1

    def test_warm_reuse_rises_in_service_gauges(self, service):
        for _ in range(3):
            service.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
        gauges = service.gauges()
        assert gauges["service.completed"] == 3
        assert gauges["service.warm_requests"] == 2
        assert gauges["service.warm_request_rate"] == pytest.approx(
            2 / 3
        )

    def test_update_workload_resets_warm_tables(
        self, service, small_workload
    ):
        service.recommend(
            RecommendRequest(workload="w", budget_share=0.3)
        )
        from repro.workload.query import Workload

        shrunk = Workload(
            small_workload.schema, list(small_workload)[:5]
        )
        registration = service.update_workload("w", shrunk)
        assert registration.version == 2
        response = service.recommend(
            RecommendRequest(workload="w", budget_share=0.3)
        )
        assert not response.warm
        assert response.workload_version == 2


class TestRegistryMutation:
    def test_registry_mutation_with_batches_in_flight(
        self, small_workload
    ):
        """register/update while pricing batches are held in the
        backend: in-flight requests keep their own workload version's
        results and scoped invalidation does not bleed across
        workloads."""
        schema = small_workload.schema
        trimmed = Workload(schema, list(small_workload)[:5])
        full_serial = IndexAdvisor(schema).recommend(
            small_workload, budget_share=0.3, algorithm="extend"
        ).result
        trimmed_serial = IndexAdvisor(schema).recommend(
            trimmed, budget_share=0.3, algorithm="extend"
        ).result

        gate = threading.Event()
        holding = _HeldKernel(schema, gate, release_after=2)
        with AdvisorService(
            schema, max_concurrency=4, queue_depth=8, cost_source=holding
        ) as service:
            service.register_workload("a1", small_workload)
            service.register_workload("a2", small_workload)
            tickets = [
                service.submit(
                    RecommendRequest(workload=name, budget_share=0.3)
                )
                for name in ("a1", "a2")
            ]
            deadline = time.monotonic() + _JOIN_S
            while holding.calls <= 2 and time.monotonic() < deadline:
                time.sleep(0.002)
            assert holding.calls > 2, (
                "pricing batches never reached the held backend"
            )
            # A batch is now held in the backend.  Mutate the registry
            # around it.
            service.register_workload("b", trimmed)
            service.update_workload("a2", trimmed)
            gate.set()
            responses = {
                name: ticket.result(timeout_s=_JOIN_S)
                for name, ticket in zip(("a1", "a2"), tickets)
            }
        # a1 ran against the original registration and must match its
        # serial result.  The a2 update landed after submission, so
        # a2 must match exactly one of the two serial truths: never a
        # blended, half-invalidated pricing.
        assert responses["a1"].status == "completed"
        assert (
            responses["a1"].result.configuration_signature()
            == full_serial.configuration_signature()
        )
        assert responses["a1"].result.total_cost == full_serial.total_cost
        assert responses["a2"].status == "completed"
        assert responses["a2"].result.configuration_signature() in (
            full_serial.configuration_signature(),
            trimmed_serial.configuration_signature(),
        )

    def test_post_mutation_requests_price_the_new_version(
        self, small_workload
    ):
        """After update/evict, fresh recommends reflect the mutated
        registry: stale pricing never leaks forward."""
        schema = small_workload.schema
        trimmed = Workload(schema, list(small_workload)[:5])
        trimmed_serial = IndexAdvisor(schema).recommend(
            trimmed, budget_share=0.3, algorithm="extend"
        ).result
        with AdvisorService(
            schema, max_concurrency=2, queue_depth=4
        ) as service:
            service.register_workload("w", small_workload)
            first = service.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
            assert first.status == "completed"
            service.update_workload("w", trimmed)
            second = service.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
            assert second.status == "completed"
            assert (
                second.result.configuration_signature()
                == trimmed_serial.configuration_signature()
            )
            assert second.result.total_cost == trimmed_serial.total_cost
            service.evict_workload("w")
            service.register_workload("w", trimmed)
            third = service.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
            assert third.result.total_cost == trimmed_serial.total_cost


class TestDeadlines:
    def test_expired_deadline_degrades_instead_of_raising(
        self, service
    ):
        response = service.recommend(
            RecommendRequest(
                workload="w", budget_share=0.3, deadline_s=0.0
            )
        )
        assert response.status == "degraded"
        assert response.degraded
        assert service.statistics.degraded == 1

    def test_default_deadline_applies(self, small_workload):
        with AdvisorService(
            small_workload.schema,
            max_concurrency=1,
            queue_depth=1,
            default_deadline_s=0.0,
        ) as service:
            service.register_workload("w", small_workload)
            response = service.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
        assert response.status == "degraded"

    def test_per_request_deadline_overrides_default(
        self, small_workload
    ):
        with AdvisorService(
            small_workload.schema,
            max_concurrency=1,
            queue_depth=1,
            default_deadline_s=0.0,
        ) as service:
            service.register_workload("w", small_workload)
            response = service.recommend(
                RecommendRequest(
                    workload="w", budget_share=0.3, deadline_s=60.0
                )
            )
        assert response.status == "completed"


class TestAdmissionControl:
    def test_overload_raises_deterministically(self, small_workload):
        gate = threading.Event()
        source = _GateSource(small_workload.schema, gate)
        service = AdvisorService(
            small_workload.schema,
            max_concurrency=1,
            queue_depth=1,
            cost_source=source,
            cost_kernel="scalar",
        )
        try:
            service.register_workload("w", small_workload)
            request = RecommendRequest(
                workload="w", budget_share=0.2
            )
            first = service.submit(request)   # executing (blocked)
            second = service.submit(request)  # queued
            with pytest.raises(ServiceOverloadedError):
                service.submit(request)       # over capacity
            statistics = service.statistics
            assert statistics.admitted == 2
            assert statistics.rejected == 1
            assert statistics.in_flight == 2
        finally:
            gate.set()
            service.close()
        assert first.result().status == "completed"
        assert second.result().status == "completed"
        assert service.statistics.in_flight == 0

    def test_capacity_frees_after_completion(self, service):
        request = RecommendRequest(workload="w", budget_share=0.3)
        for _ in range(8):  # > capacity, but serially
            service.recommend(request)
        assert service.statistics.rejected == 0

    def test_submit_validates_before_admission(self, service):
        with pytest.raises(UnknownWorkloadError):
            service.submit(
                RecommendRequest(workload="nope", budget_share=0.3)
            )
        with pytest.raises(ExperimentError):
            service.submit(
                RecommendRequest(
                    workload="w", budget_share=0.3, algorithm="magic"
                )
            )
        with pytest.raises(ExperimentError):
            service.submit(
                RecommendRequest(
                    workload="w",
                    budget_share=0.3,
                    cost_kernel="quantum",
                )
            )
        assert service.statistics.admitted == 0

    def test_closed_service_rejects_submits(self, small_workload):
        service = AdvisorService(small_workload.schema)
        service.register_workload("w", small_workload)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(
                RecommendRequest(workload="w", budget_share=0.3)
            )


class TestStreaming:
    def test_step_events_stream_with_request_id(self, service):
        ticket = service.submit(
            RecommendRequest(workload="w", budget_share=0.3)
        )
        events = list(ticket.stream.events(timeout_s=30.0))
        response = ticket.result()
        assert events
        assert all(event["type"] == "step" for event in events)
        assert all(
            event["request_id"] == ticket.request_id
            for event in events
        )
        chosen = [event for event in events if event.get("chosen")]
        assert len(chosen) == len(response.result.steps)

    def test_subscribe_finds_in_flight_request(self, small_workload):
        gate = threading.Event()
        source = _GateSource(small_workload.schema, gate)
        service = AdvisorService(
            small_workload.schema,
            max_concurrency=1,
            queue_depth=1,
            cost_source=source,
            cost_kernel="scalar",
        )
        try:
            service.register_workload("w", small_workload)
            ticket = service.submit(
                RecommendRequest(workload="w", budget_share=0.2)
            )
            assert (
                service.subscribe(ticket.request_id) is ticket.stream
            )
        finally:
            gate.set()
            service.close()
        ticket.result()
        with pytest.raises(ServiceError):
            service.subscribe(ticket.request_id)  # finished → gone


class TestObservability:
    def test_response_gauges_cover_all_layers(self, service):
        response = service.recommend(
            RecommendRequest(workload="w", budget_share=0.3)
        )
        gauges = response.gauges
        for name in (
            "service.admitted",
            "service.queue_depth",
            "service.wall_seconds",
            "service.queue_seconds",
            "service.warm",
            "service.breaker_state",
            "whatif.calls",
            "whatif.hit_rate",
            "resilience.attempts",
            "evaluation.rounds",
            "kernel.batch_calls",
        ):
            assert name in gauges, name
        assert gauges["service.breaker_state"] == 0

    def test_every_gauge_is_documented(self, service):
        emitted = set()
        for algorithm in ("extend", "extend+swap"):
            emitted |= set(
                service.recommend(
                    RecommendRequest(
                        workload="w", budget_share=0.3, algorithm=algorithm
                    )
                ).gauges
            )
        emitted |= set(
            service.sweep(
                SweepRequest(workload="w", budget_shares=(0.1, 0.3))
            ).gauges
        )
        emitted |= set(service.gauges())
        patterns = _documented_metrics()
        undocumented = sorted(
            name
            for name in emitted
            if not any(pattern.fullmatch(name) for pattern in patterns)
        )
        assert undocumented == []

    def test_response_to_dict_is_json_safe(self, service):
        response = service.recommend(
            RecommendRequest(workload="w", budget_share=0.3)
        )
        payload = json.loads(json.dumps(response.to_dict()))
        assert payload["workload"] == "w"
        assert payload["status"] == "completed"
        assert payload["indexes"]

    def test_service_gauges_track_queue_and_peaks(self, service):
        service.recommend(
            RecommendRequest(workload="w", budget_share=0.3)
        )
        gauges = service.gauges()
        assert gauges["service.queue_depth"] == 0
        assert gauges["service.in_flight"] == 0
        assert gauges["service.peak_in_flight"] >= 1
        assert gauges["service.breaker_state"] == 0

    def test_failed_request_counted_and_raised(self, small_workload):
        class _BoomSource:
            def query_cost(self, query, index):
                raise ValueError("boom")

            def maintenance_cost(self, query, index):
                raise ValueError("boom")

            def multi_index_cost(self, query, indexes):
                raise ValueError("boom")

        with AdvisorService(
            small_workload.schema,
            max_concurrency=1,
            queue_depth=1,
            cost_source=_BoomSource(),
            cost_kernel="scalar",
        ) as service:
            service.register_workload("w", small_workload)
            ticket = service.submit(
                RecommendRequest(workload="w", budget_share=0.3)
            )
            # Programming errors are not swallowed: the ticket
            # re-raises, the failure is counted, capacity is released.
            with pytest.raises(ValueError):
                ticket.result(timeout_s=30.0)
            statistics = service.statistics
            assert statistics.failed == 1
            assert statistics.in_flight == 0

    def test_request_validation(self):
        with pytest.raises(ExperimentError):
            RecommendRequest(workload="", budget_share=0.3)
        with pytest.raises(Exception):
            RecommendRequest(
                workload="w", budget_share=0.3, deadline_s=-1.0
            )
        for width in (0, -2, 1.5, False, "3"):
            with pytest.raises(IndexDefinitionError, match="candidate_width"):
                RecommendRequest(
                    workload="w", budget_share=0.3, candidate_width=width
                )
