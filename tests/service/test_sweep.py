"""Tests for the service-side multi-budget frontier sweep.

One ``sweep`` request answers a whole budget grid with one Extend run
per share, admission-controlled as a single request, pricing through
the kernel's resident what-if cache — which is what makes a repeat
sweep over a warm registration cost **zero** backend calls.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.exceptions import (
    BudgetError,
    ExperimentError,
    UnknownWorkloadError,
)
from repro.service import (
    AdvisorService,
    RecommendRequest,
    SweepRequest,
    serve_loop,
)

SHARES = (0.6, 0.3, 0.1)


@pytest.fixture
def service(small_workload):
    with AdvisorService(
        small_workload.schema, max_concurrency=2, queue_depth=4
    ) as service:
        service.register_workload("w", small_workload)
        yield service


class TestSweepRequestValidation:
    def test_requires_workload(self):
        with pytest.raises(ExperimentError):
            SweepRequest(workload="", budget_shares=SHARES)

    @pytest.mark.parametrize("bad", [(), (0.3, 0.3), (0.0,), (1.5,)])
    def test_rejects_bad_shares(self, bad):
        with pytest.raises(ExperimentError):
            SweepRequest(workload="w", budget_shares=bad)

    def test_rejects_bad_deadline(self):
        with pytest.raises(BudgetError):
            SweepRequest(
                workload="w", budget_shares=SHARES, deadline_s=-1.0
            )


class TestServiceSweep:
    def test_answers_every_share(self, service):
        response = service.sweep(
            SweepRequest(workload="w", budget_shares=SHARES)
        )
        assert response.status == "completed"
        assert not response.partial
        assert [
            point.budget_share for point in response.sweep.points
        ] == list(SHARES)
        for share in SHARES:
            assert share in response.indexes
        assert response.gauges["sweep.points"] == len(SHARES)
        assert response.gauges["sweep.backend_calls"] > 0

    def test_counts_as_one_admitted_request(self, service):
        service.sweep(SweepRequest(workload="w", budget_shares=SHARES))
        statistics = service.statistics
        assert statistics.admitted == 1
        assert statistics.completed == 1
        assert statistics.in_flight == 0

    def test_matches_individual_recommends(self, service):
        sweep = service.sweep(
            SweepRequest(workload="w", budget_shares=SHARES)
        )
        for share in SHARES:
            single = service.recommend(
                RecommendRequest(workload="w", budget_share=share)
            )
            point = sweep.sweep.point_for(share)
            assert point is not None
            assert (
                point.result.step_trace()
                == single.result.step_trace()
            )
            assert point.result.total_cost == single.result.total_cost
            assert sweep.indexes[share] == single.indexes

    def test_warm_repeat_makes_zero_backend_calls(self, service):
        """Regression gate: a repeat sweep over an already-swept
        registration is answered entirely from resident state."""
        first = service.sweep(
            SweepRequest(workload="w", budget_shares=SHARES)
        )
        assert first.gauges["sweep.backend_calls"] > 0
        repeat = service.sweep(
            SweepRequest(workload="w", budget_shares=SHARES)
        )
        assert repeat.warm
        assert repeat.gauges["sweep.backend_calls"] == 0
        for share in SHARES:
            assert repeat.indexes[share] == first.indexes[share]
            assert (
                repeat.sweep.point_for(share).result.total_cost
                == first.sweep.point_for(share).result.total_cost
            )

    def test_recommend_warms_subsequent_sweep(self, service):
        """A prior recommend at the largest share prices every pair the
        smaller shares need; the sweep then makes no backend call."""
        service.recommend(
            RecommendRequest(workload="w", budget_share=max(SHARES))
        )
        response = service.sweep(
            SweepRequest(workload="w", budget_shares=SHARES)
        )
        assert response.warm
        assert response.gauges["sweep.backend_calls"] == 0

    def test_streams_point_events(self, service):
        ticket = service.submit_sweep(
            SweepRequest(workload="w", budget_shares=SHARES)
        )
        events = list(ticket.stream.events(timeout_s=30.0))
        response = ticket.result(timeout_s=30.0)
        point_events = [
            event
            for event in events
            if event.get("type") == "sweep_point"
        ]
        assert len(point_events) == len(SHARES)
        # Points run, and stream, in the request's share order.
        assert [
            event["budget_share"] for event in point_events
        ] == list(SHARES)
        assert any(
            event.get("type") == "step" for event in events
        )
        assert not response.partial

    def test_zero_deadline_degrades_to_partial(self, service):
        response = service.sweep(
            SweepRequest(
                workload="w", budget_shares=SHARES, deadline_s=0.0
            )
        )
        assert response.partial
        assert response.status == "degraded"
        assert response.degraded
        assert len(response.sweep.points) == 1
        assert len(response.sweep.skipped_shares) == len(SHARES) - 1
        assert response.gauges["sweep.partial"] == 1

    def test_unknown_workload_raises(self, service):
        with pytest.raises(UnknownWorkloadError):
            service.submit_sweep(
                SweepRequest(workload="nope", budget_shares=SHARES)
            )

    def test_to_dict_is_json_safe(self, service):
        response = service.sweep(
            SweepRequest(workload="w", budget_shares=SHARES)
        )
        payload = json.loads(json.dumps(response.to_dict()))
        assert payload["status"] == "completed"
        assert len(payload["points"]) == len(SHARES)
        assert len(payload["frontier"]) >= 1
        for point in payload["points"]:
            assert point["indexes"] is not None
            assert point["whatif_calls"] >= 0


class TestSweepProtocol:
    def _serve(self, small_workload, lines):
        service = AdvisorService(
            small_workload.schema, max_concurrency=1, queue_depth=4
        )
        service.register_workload("w", small_workload)
        output = io.StringIO()
        serve_loop(
            service,
            io.StringIO(
                "\n".join(json.dumps(line) for line in lines) + "\n"
            ),
            output,
        )
        return [
            json.loads(line)
            for line in output.getvalue().splitlines()
        ]

    def test_sweep_op_with_share_list(self, small_workload):
        responses = self._serve(
            small_workload,
            [
                {
                    "id": 1,
                    "op": "sweep",
                    "workload": "w",
                    "budget_shares": list(SHARES),
                },
                {"op": "shutdown"},
            ],
        )
        final = responses[0]
        assert final["ok"]
        assert len(final["points"]) == len(SHARES)
        assert final["partial"] is False

    def test_sweep_op_with_spec_string_streams(self, small_workload):
        responses = self._serve(
            small_workload,
            [
                {
                    "id": 1,
                    "op": "sweep",
                    "workload": "w",
                    "budget_sweep": "0.1:0.5:3",
                    "stream": True,
                },
                {"op": "shutdown"},
            ],
        )
        events = [
            line
            for line in responses
            if line.get("op") == "event"
            and line.get("type") == "sweep_point"
        ]
        assert len(events) == 3
        final = next(
            line for line in responses if line.get("op") == "sweep"
        )
        assert final["ok"]
        assert len(final["points"]) == 3

    def test_sweep_op_accepts_grid_ending_at_one(self, small_workload):
        responses = self._serve(
            small_workload,
            [
                {
                    "id": 1,
                    "op": "sweep",
                    "workload": "w",
                    "budget_sweep": "0.08:1.0:4",
                },
                {"op": "shutdown"},
            ],
        )
        final = responses[0]
        assert final["ok"], final
        assert [point["budget_share"] for point in final["points"]][
            -1
        ] == 1.0
        assert len(final["points"]) == 4

    @pytest.mark.parametrize(
        "message",
        [
            # both spellings at once
            {
                "op": "sweep",
                "workload": "w",
                "budget_shares": [0.3],
                "budget_sweep": "0.1:0.5:3",
            },
            # neither spelling
            {"op": "sweep", "workload": "w"},
            # non-string spec
            {"op": "sweep", "workload": "w", "budget_sweep": 3},
            # share out of range
            {"op": "sweep", "workload": "w", "budget_shares": [1.5]},
            # duplicate shares
            {
                "op": "sweep",
                "workload": "w",
                "budget_shares": [0.3, 0.3],
            },
        ],
    )
    def test_invalid_sweep_requests_error_cleanly(
        self, small_workload, message
    ):
        responses = self._serve(
            small_workload,
            [{"id": 1, **message}, {"op": "shutdown"}],
        )
        error = responses[0]
        assert error["ok"] is False
        assert error["code"] == "invalid_request"
        assert error["id"] == 1
