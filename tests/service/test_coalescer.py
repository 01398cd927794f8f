"""Tests for the cross-request pricing coalescer.

The contract under test is the one the service depends on: concurrent
callers' overlapping pair-pricing work is fused into shared batches and
deduplicated by content, yet every caller observes values (and errors)
bit-identical to dispatching alone against the bare source.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advisor import IndexAdvisor
from repro.cost.kernel import VectorizedCostSource
from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource
from repro.indexes.index import Index
from repro.resilience.deadline import Deadline
from repro.service import (
    AdvisorService,
    CoalescerStatistics,
    PricingCoalescer,
    RecommendRequest,
    waiter_deadline,
)
from repro.service.coalescer import current_waiter_deadline
from repro.telemetry.metrics import MetricsRegistry
from repro.workload.generator import GeneratorConfig, generate_workload

_JOIN_S = 30.0


def _pairs_of(workload):
    """(query, None) and a single-attribute (query, index) per query."""
    pairs = []
    for query in workload:
        pairs.append((query, None))
        pairs.append(
            (
                query,
                Index.of(workload.schema, [min(query.attributes)]),
            )
        )
    return pairs


class _RecordingSource:
    """Analytic backend that records every fused batch it receives."""

    def __init__(self, schema, *, gate=None, fail_on=()):
        self._inner = AnalyticalCostSource(CostModel(schema))
        self._gate = gate
        self._fail_on = set(fail_on)
        self.batches: list[tuple] = []
        self.entered = threading.Event()

    def query_cost(self, query, index):
        return self._inner.query_cost(query, index)

    def maintenance_cost(self, query, index):
        return self._inner.maintenance_cost(query, index)

    def multi_index_cost(self, query, indexes):
        return self._inner.multi_index_cost(query, indexes)

    def pair_costs(self, pairs):
        call = len(self.batches)
        self.batches.append(tuple(pairs))
        self.entered.set()
        if self._gate is not None:
            assert self._gate.wait(timeout=_JOIN_S)
        if call in self._fail_on:
            raise RuntimeError(f"backend batch {call} exploded")
        return np.array(
            [self._inner.query_cost(q, i) for q, i in pairs],
            dtype=np.float64,
        )


class _ScalarOnlySource:
    """No batch capabilities at all (the scalar analytic shape)."""

    def query_cost(self, query, index):  # pragma: no cover - unused
        return 0.0


def _run_threads(targets):
    """Run thunks concurrently; return per-thread (result | exception)."""
    outcomes: list = [None] * len(targets)

    def runner(position, thunk):
        try:
            outcomes[position] = thunk()
        except BaseException as error:  # noqa: BLE001 - re-checked
            outcomes[position] = error

    threads = [
        threading.Thread(target=runner, args=(position, thunk))
        for position, thunk in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=_JOIN_S)
        assert not thread.is_alive(), "coalescer waiter hung"
    return outcomes


class TestConstruction:
    def test_requires_pair_costs(self, small_workload):
        with pytest.raises(TypeError):
            PricingCoalescer(_ScalarOnlySource())

    def test_rejects_bad_window_and_cap(self, small_workload):
        source = _RecordingSource(small_workload.schema)
        with pytest.raises(ValueError):
            PricingCoalescer(source, window_s=-0.001)
        with pytest.raises(ValueError):
            PricingCoalescer(source, max_pairs=0)

    def test_mirrors_missing_capabilities(self, small_workload):
        source = _RecordingSource(small_workload.schema)
        coalescer = PricingCoalescer(source)
        # The recording source has no column entry points and no batch
        # maintenance; the facade's feature detection must see the
        # exact same shape through the coalescer.
        assert coalescer.query_costs is None
        assert coalescer.sequential_costs is None
        assert coalescer.maintenance_costs is None
        assert callable(coalescer.pair_costs)
        assert callable(coalescer.query_cost)

        kernel = VectorizedCostSource(small_workload.schema)
        full = PricingCoalescer(kernel)
        assert callable(full.query_costs)
        assert callable(full.sequential_costs)
        assert callable(full.maintenance_costs)


class TestWaiterDeadline:
    def test_thread_local_set_and_restored(self):
        assert current_waiter_deadline() is None
        outer = Deadline(60)
        inner = Deadline(30)
        with waiter_deadline(outer):
            assert current_waiter_deadline() is outer
            with waiter_deadline(inner):
                assert current_waiter_deadline() is inner
            assert current_waiter_deadline() is outer
        assert current_waiter_deadline() is None

    def test_not_inherited_by_spawned_threads(self):
        seen = []
        with waiter_deadline(Deadline(60)):
            thread = threading.Thread(
                target=lambda: seen.append(current_waiter_deadline())
            )
            thread.start()
            thread.join(timeout=_JOIN_S)
        assert seen == [None]


class TestScheduling:
    def test_idle_fast_path_skips_the_window(self, small_workload):
        source = _RecordingSource(small_workload.schema)
        # A 10-second window that the lone caller must NOT pay.
        coalescer = PricingCoalescer(source, window_s=10.0)
        pairs = _pairs_of(small_workload)[:4]
        started = time.monotonic()
        values = coalescer.pair_costs(pairs)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        expected = [source.query_cost(q, i) for q, i in pairs]
        assert values.tolist() == expected
        stats = coalescer.statistics
        assert stats.idle_fast_paths == 1
        assert stats.window_waits == 0
        assert stats.batches == 1
        assert stats.enqueued_pairs == len(pairs)
        assert stats.deduped_pairs == 0

    def test_zero_window_dispatches_immediately(self, small_workload):
        source = _RecordingSource(small_workload.schema)
        coalescer = PricingCoalescer(source, window_s=0.0)
        pairs = _pairs_of(small_workload)[:2]
        assert coalescer.pair_costs(pairs).shape == (2,)
        assert coalescer.statistics.idle_fast_paths == 1

    def test_intra_call_duplicates_collapse(self, small_workload):
        source = _RecordingSource(small_workload.schema)
        coalescer = PricingCoalescer(source)
        pair = _pairs_of(small_workload)[0]
        values = coalescer.pair_costs([pair, pair, pair])
        assert len(source.batches[0]) == 1
        assert values[0] == values[1] == values[2]
        assert coalescer.statistics.enqueued_pairs == 1

    def test_empty_request_never_dispatches(self, small_workload):
        source = _RecordingSource(small_workload.schema)
        coalescer = PricingCoalescer(source)
        assert coalescer.pair_costs([]).shape == (0,)
        assert source.batches == []
        assert coalescer.statistics.callers == 0

    def _storm(self, workload, *, fail_on=(), window_s=0.05):
        """Two overlapping callers forced to meet in one window.

        A gated decoy dispatch holds leadership while both real
        callers enqueue, making the fusion deterministic instead of a
        race against the window clock.
        """
        gate = threading.Event()
        source = _RecordingSource(
            workload.schema, gate=gate, fail_on=fail_on
        )
        coalescer = PricingCoalescer(source, window_s=window_s)
        pairs = _pairs_of(workload)
        decoy = [pairs[0]]
        shared = pairs[1:7]
        mine = shared + [pairs[7]]
        yours = shared + [pairs[8]]

        decoy_thread = threading.Thread(
            target=lambda: coalescer.pair_costs(decoy)
        )
        decoy_thread.start()
        assert source.entered.wait(timeout=_JOIN_S)
        # The decoy leader is now blocked inside the backend; both
        # real callers enqueue into the next window meanwhile.
        outcomes: list = [None, None]

        def call(position, subset):
            try:
                outcomes[position] = coalescer.pair_costs(subset)
            except BaseException as error:  # noqa: BLE001
                outcomes[position] = error

        callers = [
            threading.Thread(target=call, args=(0, mine)),
            threading.Thread(target=call, args=(1, yours)),
        ]
        for thread in callers:
            thread.start()
        deadline = time.monotonic() + _JOIN_S
        union = len(shared) + 2
        while (
            coalescer.pending_pairs() < union
            and time.monotonic() < deadline
        ):
            time.sleep(0.001)
        assert coalescer.pending_pairs() == union
        gate.set()
        for thread in [decoy_thread, *callers]:
            thread.join(timeout=_JOIN_S)
            assert not thread.is_alive(), "coalescer waiter hung"
        return source, coalescer, (mine, yours), outcomes

    def test_concurrent_overlap_fuses_and_dedupes(
        self, small_workload
    ):
        source, coalescer, (mine, yours), outcomes = self._storm(
            small_workload
        )
        # One decoy batch, then exactly one fused batch carrying the
        # union of both callers' pairs — the overlap priced once.
        assert len(source.batches) == 2
        union = {
            PricingCoalescer._content_key(pair)
            for pair in mine + yours
        }
        fused = {
            PricingCoalescer._content_key(pair)
            for pair in source.batches[1]
        }
        assert fused == union
        for subset, values in zip((mine, yours), outcomes):
            expected = [source.query_cost(q, i) for q, i in subset]
            assert values.tolist() == expected
        stats = coalescer.statistics
        assert stats.deduped_pairs == len(mine) - 1  # the shared runs
        assert stats.batches == 2
        assert 0.0 < stats.dedup_rate < 1.0
        assert stats.peak_window_pairs == len(union)

    def test_batch_error_fans_out_to_every_waiter(
        self, small_workload
    ):
        # Batch 0 is the decoy; batch 1 is the fused storm batch.
        source, coalescer, _, outcomes = self._storm(
            small_workload, fail_on=(1,)
        )
        assert len(source.batches) == 2
        for outcome in outcomes:
            assert isinstance(outcome, RuntimeError)
        # Both waiters observe the *same* terminal error — one fused
        # batch is one failure unit.
        assert outcomes[0] is outcomes[1]
        # Failed items left nothing behind to poison later calls.
        assert coalescer.pending_pairs() == 0
        retry = coalescer.pair_costs([_pairs_of(small_workload)[1]])
        assert retry.shape == (1,)

    def test_cap_close_beats_a_long_window(self, small_workload):
        gate = threading.Event()
        source = _RecordingSource(small_workload.schema, gate=gate)
        coalescer = PricingCoalescer(
            source, window_s=30.0, max_pairs=4
        )
        pairs = _pairs_of(small_workload)
        decoy_thread = threading.Thread(
            target=lambda: coalescer.pair_costs([pairs[0]])
        )
        decoy_thread.start()
        assert source.entered.wait(timeout=_JOIN_S)
        outcomes = []

        def call(subset):
            outcomes.append(coalescer.pair_costs(subset))

        callers = [
            threading.Thread(target=call, args=(pairs[1:3],)),
            threading.Thread(target=call, args=(pairs[3:8],)),
        ]
        for thread in callers:
            thread.start()
        deadline = time.monotonic() + _JOIN_S
        while (
            coalescer.pending_pairs() < 7
            and time.monotonic() < deadline
        ):
            time.sleep(0.001)
        gate.set()
        started = time.monotonic()
        for thread in [decoy_thread, *callers]:
            thread.join(timeout=_JOIN_S)
            assert not thread.is_alive(), "cap close never fired"
        # The 30 s window cannot have been paid: the 4-pair cap
        # closed it as soon as the pending set filled.
        assert time.monotonic() - started < 15.0
        assert coalescer.statistics.cap_closes >= 1
        assert len(outcomes) == 2

    def test_expired_deadline_detaches_immediately(
        self, small_workload
    ):
        source = _RecordingSource(small_workload.schema)
        coalescer = PricingCoalescer(
            source,
            window_s=30.0,
            deadline_provider=lambda: Deadline(0),
        )
        pairs = _pairs_of(small_workload)[:3]
        started = time.monotonic()
        values = coalescer.pair_costs(pairs)
        assert time.monotonic() - started < 15.0
        expected = [source.query_cost(q, i) for q, i in pairs]
        assert values.tolist() == expected
        stats = coalescer.statistics
        assert stats.deadline_detaches == 1
        assert stats.batches == 1

    def test_column_entry_points_match_pair_path(
        self, small_workload
    ):
        kernel = VectorizedCostSource(small_workload.schema)
        coalescer = PricingCoalescer(kernel)
        queries = tuple(small_workload)
        index = Index.of(
            small_workload.schema, [min(queries[0].attributes)]
        )
        assert (
            coalescer.sequential_costs(queries).tolist()
            == kernel.sequential_costs(queries).tolist()
        )
        assert (
            coalescer.query_costs(queries, index).tolist()
            == kernel.query_costs(queries, index).tolist()
        )
        assert coalescer.query_cost(
            queries[0], index
        ) == kernel.query_cost(queries[0], index)


class TestStatisticsPublish:
    def test_publishes_every_gauge(self):
        stats = CoalescerStatistics(
            callers=4,
            enqueued_pairs=6,
            deduped_pairs=2,
            batches=2,
            dispatched_pairs=6,
            max_batch_pairs=4,
            peak_window_pairs=5,
            idle_fast_paths=1,
            window_waits=1,
            cap_closes=1,
            deadline_detaches=1,
            waiter_wait_seconds_total=0.25,
        )
        registry = MetricsRegistry()
        stats.publish(registry)
        assert registry.gauge("coalescer.callers").value == 4
        assert registry.gauge("coalescer.enqueued_pairs").value == 6
        assert registry.gauge("coalescer.deduped_pairs").value == 2
        assert registry.gauge("coalescer.dedup_rate").value == 0.25
        assert registry.gauge("coalescer.batches").value == 2
        assert registry.gauge("coalescer.mean_batch_pairs").value == 3
        assert registry.gauge("coalescer.max_batch_pairs").value == 4
        assert (
            registry.gauge("coalescer.deadline_detaches").value == 1
        )

    def test_copy_is_detached(self):
        stats = CoalescerStatistics(callers=1)
        snapshot = stats.copy()
        stats.callers = 9
        assert snapshot.callers == 1
        assert snapshot.dedup_rate == 0.0
        assert snapshot.mean_batch_pairs == 0.0


# ----------------------------------------------------------------------
# Property suite: coalesced ≡ uncoalesced, bitwise, under concurrency
# ----------------------------------------------------------------------

_PROPERTY_WORKLOAD = generate_workload(
    GeneratorConfig(
        tables=2, attributes_per_table=8, queries_per_table=10, seed=13
    )
)
_PROPERTY_PAIRS = _pairs_of(_PROPERTY_WORKLOAD)
_PROPERTY_KERNEL = VectorizedCostSource(_PROPERTY_WORKLOAD.schema)
# The uncoalesced truth, priced once; the kernel contract makes every
# later pricing of the same pair bit-identical.
_PROPERTY_EXPECTED = _PROPERTY_KERNEL.pair_costs(
    tuple(_PROPERTY_PAIRS)
).tolist()


class TestCoalescedIdentity:
    @given(
        calls=st.lists(
            st.lists(
                st.integers(0, len(_PROPERTY_PAIRS) - 1),
                min_size=1,
                max_size=10,
            ),
            min_size=1,
            max_size=4,
        ),
        window_ms=st.sampled_from([0.0, 1.0, 10.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_concurrent_mixes_bitwise_identical(
        self, calls, window_ms
    ):
        """Any mix of concurrent, overlapping, duplicated requests
        returns exactly the values the bare kernel returns."""
        coalescer = PricingCoalescer(
            _PROPERTY_KERNEL, window_s=window_ms / 1000.0
        )
        outcomes = _run_threads(
            [
                (
                    lambda seq=seq: coalescer.pair_costs(
                        [_PROPERTY_PAIRS[i] for i in seq]
                    )
                )
                for seq in calls
            ]
        )
        for seq, values in zip(calls, outcomes):
            assert isinstance(values, np.ndarray), values
            assert (
                values.tolist()
                == [_PROPERTY_EXPECTED[i] for i in seq]
            )
        stats = coalescer.statistics
        assert stats.callers == len(calls)
        # Every (call, unique-pair) request is accounted exactly once:
        # either it created a work item or it rode on someone else's.
        # (Dedup is per-window, not temporal — callers that miss each
        # other re-enqueue, and that is the what-if cache's job above.)
        assert stats.enqueued_pairs + stats.deduped_pairs == sum(
            len(
                {
                    PricingCoalescer._content_key(_PROPERTY_PAIRS[i])
                    for i in seq
                }
            )
            for seq in calls
        )
        assert stats.dispatched_pairs == stats.enqueued_pairs

    @given(
        columns=st.lists(
            st.integers(0, len(_PROPERTY_PAIRS) - 1),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_mixed_entry_points_agree(self, columns):
        """pair_costs / query_costs / sequential_costs racing through
        one coalescer all land on the kernel's bitwise values."""
        coalescer = PricingCoalescer(_PROPERTY_KERNEL, window_s=0.002)
        queries = tuple(_PROPERTY_WORKLOAD)[:6]
        index = Index.of(
            _PROPERTY_WORKLOAD.schema,
            [min(queries[0].attributes)],
        )
        outcomes = _run_threads(
            [
                lambda: coalescer.pair_costs(
                    [_PROPERTY_PAIRS[i] for i in columns]
                ),
                lambda: coalescer.sequential_costs(queries),
                lambda: coalescer.query_costs(queries, index),
            ]
        )
        assert outcomes[0].tolist() == [
            _PROPERTY_EXPECTED[i] for i in columns
        ]
        assert (
            outcomes[1].tolist()
            == _PROPERTY_KERNEL.sequential_costs(queries).tolist()
        )
        assert (
            outcomes[2].tolist()
            == _PROPERTY_KERNEL.query_costs(queries, index).tolist()
        )


# ----------------------------------------------------------------------
# Service-level identity and registry mutation under coalesced load
# ----------------------------------------------------------------------


class TestServiceIntegration:
    def test_concurrent_service_matches_serial_advisor(
        self, small_workload
    ):
        """A storm of identical cold requests through a coalescing
        service selects the serial advisor's exact configuration —
        and actually coalesced while doing it."""
        advisor = IndexAdvisor(small_workload.schema)
        serial = advisor.recommend(
            small_workload, budget_share=0.3, algorithm="extend"
        )
        # Hold the first fused dispatch on a gate until a second
        # request has demonstrably deduped onto its in-flight items:
        # on this tiny workload one request can otherwise finish (and
        # warm the shared cache) before the others even start, making
        # the overlap a race instead of a certainty.
        gate = threading.Event()
        kernel = VectorizedCostSource(small_workload.schema)

        class _GatedKernel:
            def query_cost(self, query, index):
                return kernel.query_cost(query, index)

            def maintenance_cost(self, query, index):
                return kernel.maintenance_cost(query, index)

            def maintenance_costs(self, queries, index):
                return kernel.maintenance_costs(queries, index)

            def multi_index_cost(self, query, indexes):
                return kernel.multi_index_cost(query, indexes)

            def query_costs(self, queries, index):
                return kernel.query_costs(queries, index)

            def sequential_costs(self, queries):
                return kernel.sequential_costs(queries)

            def pair_costs(self, pairs):
                assert gate.wait(timeout=_JOIN_S)
                return kernel.pair_costs(pairs)

        with AdvisorService(
            small_workload.schema,
            max_concurrency=4,
            queue_depth=8,
            cost_source=_GatedKernel(),
            batch_window_ms=25.0,
        ) as service:
            # Distinct registrations so every request prices cold
            # instead of being answered from the warm store.
            for position in range(4):
                service.register_workload(
                    f"w{position}", small_workload
                )
            # Stacks (and their coalescers) build lazily on first
            # use; build now so the dedup poll below has a target.
            service.kernel_stacks.stack("vectorized")
            coalescer = service.coalescer("vectorized")
            assert coalescer is not None
            tickets = [
                service.submit(
                    RecommendRequest(
                        workload=f"w{position}", budget_share=0.3
                    )
                )
                for position in range(4)
            ]
            deadline = time.monotonic() + _JOIN_S
            while (
                coalescer.statistics.deduped_pairs == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.002)
            gate.set()  # release regardless; assertions judge below
            responses = [
                ticket.result(timeout_s=_JOIN_S)
                for ticket in tickets
            ]
            stats = coalescer.statistics
        expected = serial.result.configuration_signature()
        for response in responses:
            assert response.status == "completed"
            assert (
                response.result.configuration_signature() == expected
            )
            assert (
                response.result.total_cost == serial.result.total_cost
            )
            assert "coalescer.batches" in response.gauges
        assert stats.batches >= 1
        assert stats.deduped_pairs > 0
        assert stats.dedup_rate > 0.0

    def test_coalescing_off_still_serves(self, small_workload):
        with AdvisorService(
            small_workload.schema,
            max_concurrency=2,
            queue_depth=4,
            coalesce=False,
        ) as service:
            service.register_workload("w", small_workload)
            response = service.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
            assert response.status == "completed"
            assert service.coalescer("vectorized") is None
            assert "coalescer.batches" not in response.gauges

    def test_registry_mutation_with_batches_in_flight(
        self, small_workload
    ):
        """register/update/evict while coalesced batches are pending:
        in-flight requests keep their own workload version's results
        and scoped invalidation does not bleed across workloads."""
        from repro.workload.query import Workload

        schema = small_workload.schema
        trimmed = Workload(schema, list(small_workload)[:5])
        advisor = IndexAdvisor(schema)
        full_serial = advisor.recommend(
            small_workload, budget_share=0.3, algorithm="extend"
        )
        trimmed_serial = IndexAdvisor(schema).recommend(
            trimmed, budget_share=0.3, algorithm="extend"
        )

        gate = threading.Event()
        release_after = 2  # hold fused batches, not the warm-up
        source = VectorizedCostSource(schema)

        class _HoldingSource:
            """Kernel whose later fused batches stall on a gate."""

            def __init__(self):
                self.calls = 0

            def query_cost(self, query, index):
                return source.query_cost(query, index)

            def maintenance_cost(self, query, index):
                return source.maintenance_cost(query, index)

            def maintenance_costs(self, queries, index):
                return source.maintenance_costs(queries, index)

            def multi_index_cost(self, query, indexes):
                return source.multi_index_cost(query, indexes)

            def query_costs(self, queries, index):
                return source.query_costs(queries, index)

            def sequential_costs(self, queries):
                return source.sequential_costs(queries)

            def pair_costs(self, pairs):
                self.calls += 1
                if self.calls > release_after:
                    assert gate.wait(timeout=_JOIN_S)
                return source.pair_costs(pairs)

        holding = _HoldingSource()
        with AdvisorService(
            schema,
            max_concurrency=4,
            queue_depth=8,
            cost_source=holding,
            batch_window_ms=25.0,
        ) as service:
            service.register_workload("a1", small_workload)
            service.register_workload("a2", small_workload)
            tickets = [
                service.submit(
                    RecommendRequest(
                        workload=name, budget_share=0.3
                    )
                )
                for name in ("a1", "a2")
            ]
            deadline = time.monotonic() + _JOIN_S
            while (
                holding.calls <= release_after
                and time.monotonic() < deadline
            ):
                time.sleep(0.002)
            assert holding.calls > release_after, (
                "fused batches never reached the held backend"
            )
            # Batches are now pending inside the coalescer.  Mutate
            # the registry around them.
            service.register_workload("b", trimmed)
            service.update_workload("a2", trimmed)
            gate.set()
            responses = {
                name: ticket.result(timeout_s=_JOIN_S)
                for name, ticket in zip(("a1", "a2"), tickets)
            }
        full_signature = (
            full_serial.result.configuration_signature()
        )
        # Both in-flight requests ran against the *original*
        # registration contents and must match its serial result
        # (the a2 update landed after submission admitted version 1;
        # either way the response must match ONE of the two serial
        # truths exactly — no blended, half-invalidated pricing).
        assert responses["a1"].status == "completed"
        assert (
            responses["a1"].result.configuration_signature()
            == full_signature
        )
        assert (
            responses["a1"].result.total_cost
            == full_serial.result.total_cost
        )
        assert responses["a2"].status == "completed"
        trimmed_signature = (
            trimmed_serial.result.configuration_signature()
        )
        a2_signature = responses[
            "a2"
        ].result.configuration_signature()
        assert a2_signature in (full_signature, trimmed_signature)

    def test_post_mutation_requests_price_the_new_version(
        self, small_workload
    ):
        """After update/evict, fresh recommends reflect the mutated
        registry — stale coalesced pricing never leaks forward."""
        from repro.workload.query import Workload

        schema = small_workload.schema
        trimmed = Workload(schema, list(small_workload)[:5])
        trimmed_serial = IndexAdvisor(schema).recommend(
            trimmed, budget_share=0.3, algorithm="extend"
        )
        with AdvisorService(
            schema,
            max_concurrency=2,
            queue_depth=4,
            batch_window_ms=5.0,
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
                == trimmed_serial.result.configuration_signature()
            )
            assert (
                second.result.total_cost
                == trimmed_serial.result.total_cost
            )
            service.evict_workload("w")
            service.register_workload("w", trimmed)
            third = service.recommend(
                RecommendRequest(workload="w", budget_share=0.3)
            )
            assert (
                third.result.total_cost
                == trimmed_serial.result.total_cost
            )
