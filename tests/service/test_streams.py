"""Subscriber-accounting tests for request event streams.

The regression these pin down: a streaming client that dies
mid-iteration (broken pipe, closed generator, timed-out wait) must not
remain counted as a subscriber — phantom subscriptions accumulate
without bound in a long-lived daemon.
"""

from __future__ import annotations

import threading

from repro.service import AdvisorService, RecommendRequest
from repro.service.streams import EventStream
from tests.service.test_service import _GateSource


class TestEventStreamSubscribers:
    def test_counts_from_first_next_until_exhaustion(self):
        stream = EventStream("r")
        stream.publish({"type": "step", "n": 1})
        stream.finish()
        iterator = stream.events()
        assert stream.subscribers == 0  # generator not started yet
        next(iterator)
        assert stream.subscribers == 1
        assert list(iterator) == []
        assert stream.subscribers == 0

    def test_closed_iterator_unsubscribes(self):
        stream = EventStream("r")
        stream.publish({"type": "step", "n": 1})
        iterators = [stream.events() for _ in range(5)]
        for iterator in iterators:
            next(iterator)
        assert stream.subscribers == 5
        for iterator in iterators:
            iterator.close()  # GeneratorExit path, as on disconnect
        assert stream.subscribers == 0

    def test_timed_out_wait_unsubscribes(self):
        stream = EventStream("r")  # never finished, never published
        assert list(stream.events(timeout_s=0.01)) == []
        assert stream.subscribers == 0


class TestKilledStreamingClients:
    def test_killed_clients_leave_zero_subscribers(
        self, small_workload
    ):
        """N clients stream one in-flight request and every one of
        them is killed mid-iteration; the stream must end with zero
        live subscribers and the request must still complete."""
        gate = threading.Event()
        source = _GateSource(small_workload.schema, gate)
        service = AdvisorService(
            small_workload.schema,
            max_concurrency=1,
            queue_depth=1,
            cost_source=source,
        )
        try:
            service.register_workload("w", small_workload)
            ticket = service.submit(
                RecommendRequest(workload="w", budget_share=0.2)
            )

            def doomed_client() -> None:
                iterator = ticket.stream.events(timeout_s=10.0)
                try:
                    # One event, then die with the stream still live —
                    # close() is the deterministic stand-in for the
                    # GeneratorExit a dropped connection triggers.
                    next(iterator, None)
                finally:
                    iterator.close()

            threads = [
                threading.Thread(target=doomed_client)
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            gate.set()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert ticket.stream.subscribers == 0
            assert (
                ticket.result(timeout_s=30.0).status == "completed"
            )
        finally:
            gate.set()
            service.close()
