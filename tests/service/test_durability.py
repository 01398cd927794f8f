"""Tests for durable snapshots, drain, and the watchdog."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.exceptions import (
    ServiceDrainingError,
    ServiceOverloadedError,
    SnapshotError,
    WatchdogTimeoutError,
)
from repro.resilience.faults import ManualClock
from repro.service import AdvisorService, RecommendRequest
from repro.service import durability
from tests.service.test_service import _GateSource


@pytest.fixture
def snapshot_dir(tmp_path):
    return tmp_path / "snapshots"


def _cache_entries(service, name: str) -> str:
    """The what-if cache entries of one registration, per built kernel,
    as canonical JSON (``json`` writes floats by ``repr``, so equal
    strings mean bit-identical costs)."""
    queries = tuple(service.registry.get(name).workload)
    stacks = service.kernel_stacks
    return json.dumps(
        {
            kernel: stacks.stack(kernel)[1].export_cache(queries)
            for kernel in sorted(stacks.built_kernels())
        },
        sort_keys=True,
    )


class TestSnapshotRoundTrip:
    def test_restore_is_bit_identical_and_warm(
        self, small_workload, snapshot_dir
    ):
        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as seeder:
            seeder.register_workload("w", small_workload)
            cold = seeder.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
            baseline = _cache_entries(seeder, "w")
        # close() drained, which wrote the final snapshot.
        assert durability.snapshot_path(snapshot_dir).exists()

        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as restarted:
            report = restarted.restore_report
            assert report is not None and report.restored
            assert report.workloads == 1
            assert report.whatif_entries > 0
            assert restarted.workloads() == ("w",)
            assert _cache_entries(restarted, "w") == baseline
            warm = restarted.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
        assert warm.warm
        assert warm.gauges["whatif.calls"] == 0
        assert (
            warm.result.configuration_signature()
            == cold.result.configuration_signature()
        )

    def test_version_and_served_continuity(
        self, small_workload, snapshot_dir
    ):
        from repro.workload.query import Workload

        shrunk = Workload(
            small_workload.schema, list(small_workload)[:5]
        )
        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as seeder:
            seeder.register_workload("w", small_workload)
            seeder.update_workload("w", shrunk)
            seeder.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as restarted:
            registration = restarted.registry.get("w")
            assert registration.version == 2
            assert registration.served == 1
            response = restarted.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
            assert response.workload_version == 2

    def test_snapshot_sequence_continues_across_restarts(
        self, small_workload, snapshot_dir
    ):
        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as seeder:
            seeder.register_workload("w", small_workload)
            first = seeder.snapshot_now()
            assert first == durability.snapshot_path(snapshot_dir)
        sequence = json.loads(first.read_text())["payload"]["sequence"]
        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as restarted:
            restored = restarted.restore_report
            assert restored is not None
            restarted.snapshot_now()
            statistics = restarted.statistics
            assert statistics.snapshot_sequence > sequence
            assert statistics.snapshot_restores == 1
            assert statistics.snapshot_writes == 1


class TestCorruptionHandling:
    def _seed(self, workload, snapshot_dir):
        with AdvisorService(
            workload.schema, snapshot_dir=snapshot_dir
        ) as seeder:
            seeder.register_workload("w", workload)
            seeder.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
        return durability.snapshot_path(snapshot_dir)

    def test_missing_snapshot_is_a_normal_first_boot(
        self, small_workload, snapshot_dir
    ):
        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as service:
            report = service.restore_report
            assert report is not None
            assert not report.restored
            assert report.reason == "missing"
            assert not report.corrupt
            assert service.statistics.snapshot_corruptions == 0

    @pytest.mark.parametrize(
        ("mangle", "reason"),
        [
            (lambda raw: raw[: len(raw) // 2], "corrupt-json"),
            (
                lambda raw: raw.replace(
                    b'"sequence"', b'"sequence0"', 1
                ),
                "checksum-mismatch",
            ),
        ],
    )
    def test_partial_or_flipped_snapshot_cold_starts(
        self, small_workload, snapshot_dir, mangle, reason
    ):
        path = self._seed(small_workload, snapshot_dir)
        path.write_bytes(mangle(path.read_bytes()))
        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as victim:
            report = victim.restore_report
            assert report is not None and report.corrupt
            assert report.reason == reason
            assert victim.workloads() == ()
            assert victim.statistics.snapshot_corruptions == 1
            # Cold but healthy: the service still serves.
            victim.register_workload("w", small_workload)
            response = victim.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
            assert response.status == "completed"
            assert not response.warm

    def test_version_one_snapshot_cold_starts(
        self, small_workload, snapshot_dir
    ):
        """A snapshot of the format that also carried per-registration
        warm cost columns is discarded as version skew."""
        path = self._seed(small_workload, snapshot_dir)
        envelope = json.loads(path.read_text())
        assert envelope["version"] == durability.SNAPSHOT_VERSION == 2
        envelope["version"] = 1
        path.write_text(json.dumps(envelope))
        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as victim:
            report = victim.restore_report
            assert report is not None and report.corrupt
            assert report.reason == "version-skew"
            assert victim.workloads() == ()

    def test_version_skew_cold_starts(
        self, small_workload, snapshot_dir
    ):
        path = self._seed(small_workload, snapshot_dir)
        envelope = json.loads(path.read_text())
        envelope["version"] = 999
        path.write_text(json.dumps(envelope))
        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as victim:
            report = victim.restore_report
            assert report is not None and report.corrupt
            assert report.reason == "version-skew"
            assert victim.workloads() == ()

    def test_schema_mismatch_cold_starts(
        self, small_workload, tiny_schema, snapshot_dir
    ):
        self._seed(small_workload, snapshot_dir)
        with AdvisorService(
            tiny_schema, snapshot_dir=snapshot_dir
        ) as victim:
            report = victim.restore_report
            assert report is not None and report.corrupt
            assert report.reason == "schema-mismatch"
            assert victim.workloads() == ()

    def test_malformed_payload_leaves_nothing_half_restored(
        self, small_workload, snapshot_dir
    ):
        import hashlib

        path = self._seed(small_workload, snapshot_dir)
        envelope = json.loads(path.read_text())
        # Two workloads, the second impossible: the first must not
        # survive the failed restore.
        good = envelope["payload"]["workloads"][0]
        broken = dict(good, name="broken")
        del broken["queries"]
        envelope["payload"]["workloads"] = [good, broken]
        body = json.dumps(
            envelope["payload"], sort_keys=True, separators=(",", ":")
        )
        envelope["checksum"] = hashlib.sha256(
            body.encode("utf-8")
        ).hexdigest()
        path.write_text(json.dumps(envelope))
        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as victim:
            report = victim.restore_report
            assert report is not None and report.corrupt
            assert report.reason == "malformed-payload"
            assert victim.workloads() == ()


class TestSnapshotOps:
    def test_snapshot_now_without_directory_raises(
        self, small_workload
    ):
        with AdvisorService(small_workload.schema) as service:
            with pytest.raises(SnapshotError):
                service.snapshot_now()

    def test_snapshot_age_and_gauges(
        self, small_workload, snapshot_dir
    ):
        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as service:
            assert service.snapshot_age_seconds() is None
            assert service.gauges()["service.snapshot_age_seconds"] == -1
            service.register_workload("w", small_workload)
            service.snapshot_now()
            assert service.snapshot_age_seconds() >= 0.0
            gauges = service.gauges()
            assert gauges["service.snapshot_age_seconds"] >= 0.0
            assert gauges["service.snapshot_writes"] == 1
            assert gauges["service.pool_alive"] >= 1
            assert gauges["service.pool_abandoned"] == 0

    def test_health_reports_every_section(
        self, small_workload, snapshot_dir
    ):
        with AdvisorService(
            small_workload.schema, snapshot_dir=snapshot_dir
        ) as service:
            service.register_workload("w", small_workload)
            service.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
            health = service.health()
        assert health["status"] == "ok"
        assert health["in_flight"] == 0
        assert health["completed"] == 1
        assert health["pool"]["alive"] >= 1
        assert health["watchdog"]["enabled"]
        assert health["snapshots"]["enabled"]
        assert health["snapshots"]["directory"] == str(snapshot_dir)
        assert "vectorized" in health["breakers"]
        # JSON-safe for the protocol op.
        json.dumps(health)

    def test_ready_reflects_lifecycle(self, small_workload):
        service = AdvisorService(small_workload.schema)
        assert service.ready() == {"ready": True, "reason": "ok"}
        service.drain()
        assert service.ready() == {
            "ready": False,
            "reason": "draining",
        }
        service.close()
        assert service.ready() == {"ready": False, "reason": "closed"}


class TestDrain:
    def test_drain_stops_admission(self, small_workload):
        with AdvisorService(small_workload.schema) as service:
            service.register_workload("w", small_workload)
            service.drain()
            with pytest.raises(ServiceDrainingError):
                service.submit(
                    RecommendRequest(workload="w", budget_share=0.3)
                )

    def test_drain_lets_inflight_requests_finish(self, small_workload):
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
            gate.set()
            statistics = service.drain()
            assert statistics.completed == 1
            assert statistics.drain_forced == 0
            assert ticket.result(timeout_s=1.0).status == "completed"
        finally:
            service.close()

    def test_drain_force_resolves_hung_workers(self, small_workload):
        gate = threading.Event()
        source = _GateSource(small_workload.schema, gate)
        service = AdvisorService(
            small_workload.schema,
            max_concurrency=1,
            queue_depth=1,
            cost_source=source,
            cost_kernel="scalar",
            watchdog_grace_s=0.1,
            watchdog_interval_s=0.0,
        )
        try:
            service.register_workload("w", small_workload)
            ticket = service.submit(
                RecommendRequest(workload="w", budget_share=0.2)
            )
            statistics = service.drain(timeout_s=0.1)
            assert statistics.drain_forced == 1
            assert statistics.in_flight == 0
            with pytest.raises(WatchdogTimeoutError):
                ticket.result(timeout_s=1.0)
        finally:
            gate.set()
            service.close()


class TestWatchdog:
    def test_watchdog_cancels_hung_request(self, small_workload):
        gate = threading.Event()
        source = _GateSource(small_workload.schema, gate)
        clock = ManualClock()
        service = AdvisorService(
            small_workload.schema,
            max_concurrency=1,
            queue_depth=1,
            cost_source=source,
            cost_kernel="scalar",
            clock=clock,
            watchdog_grace_s=1.0,
            watchdog_interval_s=0.0,
        )
        try:
            service.register_workload("w", small_workload)
            ticket = service.submit(
                RecommendRequest(
                    workload="w", budget_share=0.2, deadline_s=2.0
                )
            )
            clock.advance(10.0)
            cancelled = 0
            deadline = time.monotonic() + 30.0
            # The sweep only fires once a worker picked the request up.
            while cancelled == 0 and time.monotonic() < deadline:
                cancelled = service.run_watchdog_once()
                time.sleep(0.01)
            assert cancelled == 1
            with pytest.raises(WatchdogTimeoutError):
                ticket.result(timeout_s=1.0)
            statistics = service.statistics
            assert statistics.watchdog_cancelled == 1
            assert statistics.in_flight == 0
            # The hung worker was abandoned and replaced: capacity is
            # restored even though its thread is still parked.
            health = service.health()
            assert health["pool"]["alive"] == 1
            assert health["pool"]["abandoned"] == 1
        finally:
            gate.set()
            service.close()

    def test_sweep_without_overdue_work_cancels_nothing(
        self, small_workload
    ):
        with AdvisorService(small_workload.schema) as service:
            service.register_workload("w", small_workload)
            service.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
            assert service.run_watchdog_once() == 0


class TestRetryAfterHint:
    def test_overload_carries_retry_after(self, small_workload):
        gate = threading.Event()
        source = _GateSource(small_workload.schema, gate)
        service = AdvisorService(
            small_workload.schema,
            max_concurrency=1,
            queue_depth=0,
            cost_source=source,
            cost_kernel="scalar",
        )
        try:
            service.register_workload("w", small_workload)
            service.submit(
                RecommendRequest(workload="w", budget_share=0.2)
            )
            with pytest.raises(ServiceOverloadedError) as excinfo:
                service.submit(
                    RecommendRequest(workload="w", budget_share=0.2)
                )
            assert excinfo.value.retry_after_s >= 0.05
        finally:
            gate.set()
            service.close()
