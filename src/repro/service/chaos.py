"""Seeded chaos harness for the advisor service.

Robustness claims that are only exercised by whatever failures happen
to occur in production are not claims at all.  This module *scripts*
the failures — deterministically, from a single seed — and asserts the
service's invariants after every scenario:

* every admitted request reaches **exactly one** terminal outcome
  (a ``completed``/``degraded`` response or an error);
* the ``service.*`` counters stay consistent (``in_flight`` and
  ``queue_depth`` return to zero, ``admitted == completed + failed``);
* no event stream retains phantom subscribers after its clients died;
* the worker pool is back at full strength (hung workers replaced);
* restored what-if caches are bit-identical to what was snapshotted,
  or the service is *cleanly* cold — never half-restored.

Scenarios (``SCENARIOS``):

``worker_death``
    Worker executions die mid-request (an exploding cost backend) and
    one genuinely hangs until the watchdog abandons its thread.
``sweep_worker_death``
    A multi-budget frontier sweep's worker dies mid-sweep (an
    exploding backend call aimed, by a fault-free probe run, inside a
    later point's pricing window).  The sweep must degrade to a
    *tagged partial frontier* — the already-answered budget prefix,
    ``partial`` flagged, the unanswered shares listed as skipped — not
    crash, and the service must answer a repeat sweep over the same
    registration cleanly afterwards.
``malformed_lines``
    The JSON-lines loop is fed truncated JSON, binary junk, nesting
    too deep for the parser, non-object lines, and unknown ops; every
    line must produce exactly one response, errors must carry stable
    ``code`` tags, and ``id`` correlation must survive even
    unparseable lines.
``client_disconnect``
    Streaming clients vanish mid-stream (broken pipe on the protocol,
    closed generators on the API); subscriptions must not leak and the
    abandoned requests must still reach terminal outcomes.
``corrupt_snapshot``
    A snapshot is truncated, bit-flipped, or version-skewed between
    runs; restart must detect it, fall back to a cold start, and keep
    serving.  The un-corrupted control restart must restore the what-if
    cache bit-identically.
``clock_skew``
    The service clock (a :class:`~repro.resilience.faults.ManualClock`)
    jumps forward mid-request via injected latency spikes from a
    :class:`~repro.resilience.faults.FaultInjectingCostSource`;
    requests past their deadline must degrade (not crash, not hang) and
    a manual watchdog sweep over a skewed clock must cancel only
    genuinely in-flight overdue work.

Scenarios use ``max_concurrency=1`` where the *report* depends on call
order, so one seed always yields one report —
``python -m repro.service.chaos --seed 7`` twice prints identical
JSON.  Run it via ``main()`` (exit 1 on any violated invariant).
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
import tempfile
import threading
from concurrent.futures import TimeoutError as _FutureTimeoutError
from dataclasses import dataclass, field
from pathlib import Path

from repro.cost.model import CostModel
from repro.cost.whatif import AnalyticalCostSource
from repro.exceptions import WatchdogTimeoutError
from repro.resilience.faults import (
    FaultInjectingCostSource,
    ManualClock,
)
from repro.service.daemon import AdvisorService
from repro.service.protocol import serve_loop
from repro.service.request import RecommendRequest, SweepRequest
from repro.workload.enterprise import (
    EnterpriseConfig,
    generate_enterprise_workload,
)
from repro.workload.generator import GeneratorConfig, generate_workload

__all__ = ["ChaosHarness", "ScenarioReport", "SCENARIOS", "main"]

SCENARIOS = (
    "worker_death",
    "sweep_worker_death",
    "malformed_lines",
    "client_disconnect",
    "corrupt_snapshot",
    "clock_skew",
)

_BUDGET_SHARE = 0.3
_OUTCOME_WAIT_S = 30.0

# Sweep-chaos grid, descending: on the enterprise workload below, at
# least one budget past the first still prices fresh candidates (tight
# budgets reject the wide indexes the big-budget point priced and fall
# back to narrow ones it never saw), which is what gives the scripted
# death a non-empty window to land in.  On the uniform generator
# workloads the first point prices everything the later ones need,
# which would make the scenario vacuous.
_SWEEP_SHARES = (0.1, 0.05, 0.02, 0.01)


@dataclass
class ScenarioReport:
    """What one scenario did and which invariants (if any) it broke."""

    scenario: str
    seed: int
    admitted: int = 0
    completed: int = 0
    degraded: int = 0
    errored: int = 0
    details: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "admitted": self.admitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "errored": self.errored,
            "details": self.details,
            "violations": list(self.violations),
        }


class _ExplodingSource:
    """Scalar analytic source whose scripted calls die or hang.

    ``die_on`` calls raise ``RuntimeError`` — *not* a ``ReproError``,
    so it models the worker's own code dying rather than a backend
    politely failing.  The ``hang_on`` call blocks on ``gate`` until
    the scenario releases it (after the watchdog already abandoned the
    worker).
    """

    def __init__(
        self,
        schema,
        *,
        die_on: frozenset[int],
        hang_on: int | None,
        gate: threading.Event,
        hang_started: threading.Event,
    ) -> None:
        self._inner = AnalyticalCostSource(CostModel(schema))
        self._die_on = die_on
        self._hang_on = hang_on
        self._gate = gate
        self._hang_started = hang_started
        self._calls = 0
        self._lock = threading.Lock()

    def _chaos(self) -> None:
        with self._lock:
            self._calls += 1
            calls = self._calls
        if calls == self._hang_on:
            self._hang_started.set()
            self._gate.wait()
        if calls in self._die_on:
            raise RuntimeError(
                f"chaos: worker execution died at call #{calls}"
            )

    def query_cost(self, query, index):
        self._chaos()
        return self._inner.query_cost(query, index)

    def maintenance_cost(self, query, index):
        self._chaos()
        return self._inner.maintenance_cost(query, index)

    def multi_index_cost(self, query, indexes):
        self._chaos()
        return self._inner.multi_index_cost(query, indexes)


class _DroppingOutput(io.StringIO):
    """An output stream whose client hangs up after ``lines`` lines.

    The pipe breaks on the flush that ends a response line — where a
    real SIGPIPE surfaces for a line-buffered writer.
    """

    def __init__(self, lines: int) -> None:
        super().__init__()
        self._lines = lines

    def flush(self) -> None:
        if self._lines <= 0:
            raise BrokenPipeError("chaos: client hung up")
        self._lines -= 1
        super().flush()


def _outcome(ticket, report: ScenarioReport):
    """A ticket's terminal outcome, or (None, None) after recording a
    never-finished violation."""
    try:
        return ticket.outcome(timeout_s=_OUTCOME_WAIT_S)
    except (TimeoutError, _FutureTimeoutError):
        report.violations.append(
            f"request {ticket.request_id} never reached a terminal "
            "outcome"
        )
        return None, None


class ChaosHarness:
    """Runs seeded failure scenarios against a real service."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        # A small but non-trivial deterministic workload: enough
        # queries that a selection run makes many backend calls (so
        # mid-request faults land mid-request), small enough that a
        # full scenario sweep stays in CI-seconds territory.
        self._workload = generate_workload(
            GeneratorConfig(
                tables=3,
                attributes_per_table=8,
                queries_per_table=5,
                seed=1909,
            )
        )
        self._schema = self._workload.schema

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(self, scenario: str) -> ScenarioReport:
        """Run one scenario by name; returns its report."""
        if scenario not in SCENARIOS:
            raise ValueError(
                f"unknown chaos scenario {scenario!r}; pick one of "
                f"{', '.join(SCENARIOS)}"
            )
        return getattr(self, f"_run_{scenario}")()

    def run_all(self) -> list[ScenarioReport]:
        """Run every scenario; returns the reports in order."""
        return [self.run(scenario) for scenario in SCENARIOS]

    # ------------------------------------------------------------------
    # Shared invariant checking
    # ------------------------------------------------------------------

    def _settle_and_check(
        self, service, tickets, report: ScenarioReport
    ) -> None:
        """Drain the service and assert the cross-scenario invariants."""
        for ticket in tickets:
            response, error = _outcome(ticket, report)
            if response is None and error is None:
                continue
            if error is not None:
                report.errored += 1
            elif response.status == "degraded":
                report.degraded += 1
                report.completed += 1
            elif response.status == "completed":
                report.completed += 1
            else:
                report.violations.append(
                    f"request {ticket.request_id} finished with "
                    f"unknown status {response.status!r}"
                )
            if ticket.stream.subscribers != 0:
                report.violations.append(
                    f"stream {ticket.request_id} leaked "
                    f"{ticket.stream.subscribers} subscriber(s)"
                )
            if not ticket.stream.finished:
                report.violations.append(
                    f"stream {ticket.request_id} was never finished"
                )
        service.close()
        statistics = service.statistics
        if statistics.in_flight != 0:
            report.violations.append(
                f"in_flight stuck at {statistics.in_flight}"
            )
        if statistics.queue_depth != 0:
            report.violations.append(
                f"queue_depth stuck at {statistics.queue_depth}"
            )
        if (
            statistics.admitted
            != statistics.completed + statistics.failed
        ):
            report.violations.append(
                f"admitted ({statistics.admitted}) != completed "
                f"({statistics.completed}) + failed "
                f"({statistics.failed})"
            )
        report.admitted = statistics.admitted
        if report.completed != statistics.completed:
            report.violations.append(
                f"ticket outcomes saw {report.completed} completions "
                f"but counters say {statistics.completed}"
            )
        if report.errored != statistics.failed:
            report.violations.append(
                f"ticket outcomes saw {report.errored} errors "
                f"but counters say {statistics.failed}"
            )

    # ------------------------------------------------------------------
    # Scenarios
    # ------------------------------------------------------------------

    def _run_worker_death(self) -> ScenarioReport:
        report = ScenarioReport("worker_death", self.seed)
        rng = random.Random(self.seed)
        gate = threading.Event()
        hang_started = threading.Event()
        # A cold selection run against the chaos workload makes ~110
        # backend calls (warm ones make none), and a dead request's
        # already-priced pairs stay in the what-if cache, so successive
        # requests keep advancing the shared call counter through the
        # cold-pricing window.  Deaths land early in that window, the
        # hang later (disjoint ranges: a call dies or hangs, never
        # both), so every scripted fault is guaranteed to fire.
        die_on = frozenset(
            rng.sample(range(2, 60), rng.randint(2, 3))
        )
        hang_on = rng.randint(61, 90)
        source = _ExplodingSource(
            self._schema,
            die_on=die_on,
            hang_on=hang_on,
            gate=gate,
            hang_started=hang_started,
        )
        # Serial on purpose: the fault schedule is call-order keyed, so
        # one worker keeps which-request-hits-which-fault reproducible.
        # Time is manual and the watchdog swept by hand: deadlines then
        # only expire when the scenario says so, which makes the cancel
        # count exact instead of racing the background sweeper.
        clock = ManualClock()
        service = AdvisorService(
            self._schema,
            max_concurrency=1,
            queue_depth=16,
            cost_source=source,
            clock=clock,
            watchdog_grace_s=1.0,
            watchdog_interval_s=0.0,
            drain_timeout_s=5.0,
        )
        tickets: list = []
        try:
            service.register_workload("chaos", self._workload)
            tickets = [
                service.submit(
                    RecommendRequest(
                        workload="chaos",
                        budget_share=_BUDGET_SHARE,
                        deadline_s=5.0,
                        request_id=f"death-{i}",
                    )
                )
                for i in range(6)
            ]
            if not hang_started.wait(timeout=_OUTCOME_WAIT_S):
                report.violations.append(
                    "the scripted hang was never reached"
                )
            # Jump simulated time past deadline + grace and sweep: the
            # one hung worker must be cancelled, the queued requests
            # (not yet started) must be left to degrade on their own.
            clock.advance(10.0)
            cancelled = service.run_watchdog_once()
            if cancelled != 1:
                report.violations.append(
                    f"watchdog sweep cancelled {cancelled} requests, "
                    "expected exactly the 1 hung one"
                )
            outcomes = [
                _outcome(ticket, report) for ticket in tickets
            ]
            watchdogged = sum(
                1
                for _, error in outcomes
                if isinstance(error, WatchdogTimeoutError)
            )
            died = sum(
                1
                for _, error in outcomes
                if isinstance(error, RuntimeError)
            )
            report.details["die_on"] = sorted(die_on)
            report.details["hang_on"] = hang_on
            report.details["watchdog_cancelled"] = watchdogged
            report.details["worker_deaths"] = died
            if died == 0:
                report.violations.append(
                    "no request died from the exploding backend"
                )
            if watchdogged != 1:
                report.violations.append(
                    "expected exactly 1 watchdog cancel, saw "
                    f"{watchdogged}"
                )
            statistics = service.statistics
            if statistics.watchdog_cancelled != 1:
                report.violations.append(
                    "watchdog_cancelled counter is "
                    f"{statistics.watchdog_cancelled}, expected 1"
                )
            # The abandoned worker is still parked on the gate, yet the
            # pool must already be back at full strength.
            alive = service.health()["pool"]["alive"]
            report.details["pool_alive"] = alive
            if alive != 1:
                report.violations.append(
                    f"pool has {alive} live worker(s) after the "
                    "watchdog abandonment, expected 1"
                )
        finally:
            gate.set()
            self._settle_and_check(service, tickets, report)
        return report

    def _run_sweep_worker_death(self) -> ScenarioReport:
        report = ScenarioReport("sweep_worker_death", self.seed)
        rng = random.Random(self.seed)
        workload = generate_enterprise_workload(
            EnterpriseConfig(scale=0.05, seed=500)
        )
        schema = workload.schema

        def _source(die_on: frozenset[int] = frozenset()):
            return _ExplodingSource(
                schema,
                die_on=die_on,
                hang_on=None,
                gate=threading.Event(),
                hang_started=threading.Event(),
            )

        # Probe pass: a fault-free twin service runs the exact sweep
        # the victim will run and reports each point's backend-call
        # delta, in the order the points ran (the caller's share
        # order), which maps the raw-call windows the death can be
        # aimed into.  Both services are deterministic from the same
        # cold state, so the victim replays the probe's call sequence
        # call for call.
        probe_source = _source()
        with AdvisorService(
            schema,
            max_concurrency=1,
            queue_depth=4,
            cost_source=probe_source,
        ) as probe:
            probe.register_workload("sweep-probe", workload)
            probed = probe.sweep(
                SweepRequest(
                    workload="sweep-probe",
                    budget_shares=_SWEEP_SHARES,
                )
            )
        ordered = probed.sweep.points
        if probe_source._calls != sum(
            point.whatif_calls for point in ordered
        ):
            report.violations.append(
                "facade call deltas no longer map 1:1 onto raw "
                f"backend calls ({probe_source._calls} raw vs "
                f"{sum(p.whatif_calls for p in ordered)} facade); "
                "the death window cannot be aimed"
            )
            return report
        # Vacuity guard: the death must land *mid-sweep*, i.e. in a
        # point past the first — which requires such a point to make
        # backend calls at all.
        eligible = [
            position
            for position, point in enumerate(ordered)
            if position >= 1 and point.whatif_calls > 0
        ]
        report.details["point_calls"] = [
            point.whatif_calls for point in ordered
        ]
        if not eligible:
            report.violations.append(
                "no sweep point past the first prices anything on "
                "this workload; scenario vacuous"
            )
            return report
        target = rng.choice(eligible)
        window_start = sum(
            point.whatif_calls for point in ordered[:target]
        )
        die_call = rng.randint(
            window_start + 1,
            window_start + ordered[target].whatif_calls,
        )
        expected_shares = [
            point.budget_share for point in ordered[:target]
        ]
        report.details["death_point"] = target
        report.details["die_call"] = die_call

        source = _source(die_on=frozenset({die_call}))
        service = AdvisorService(
            schema,
            max_concurrency=1,
            queue_depth=4,
            cost_source=source,
            drain_timeout_s=5.0,
        )
        tickets: list = []
        try:
            service.register_workload("sweep-chaos", workload)
            ticket = service.submit_sweep(
                SweepRequest(
                    workload="sweep-chaos",
                    budget_shares=_SWEEP_SHARES,
                    request_id="sweep-death-0",
                )
            )
            tickets.append(ticket)
            events = list(
                ticket.stream.events(timeout_s=_OUTCOME_WAIT_S)
            )
            point_events = [
                event
                for event in events
                if event.get("type") == "sweep_point"
            ]
            response, error = _outcome(ticket, report)
            if error is not None:
                report.violations.append(
                    "mid-sweep worker death failed the whole request "
                    f"({error!r}) instead of degrading to a partial "
                    "frontier"
                )
            elif response is not None:
                if not response.partial:
                    report.violations.append(
                        "sweep completed despite the scripted worker "
                        "death; the death never fired"
                    )
                if response.status != "degraded":
                    report.violations.append(
                        "partial frontier is not tagged degraded "
                        f"(status {response.status!r})"
                    )
                answered = [
                    point.budget_share for point in response.sweep.points
                ]
                report.details["answered_shares"] = answered
                if answered != expected_shares:
                    report.violations.append(
                        f"partial frontier answered {answered}, "
                        "expected exactly the pre-death prefix "
                        f"{expected_shares}"
                    )
                if answered + list(
                    response.sweep.skipped_shares
                ) != list(_SWEEP_SHARES):
                    report.violations.append(
                        "answered + skipped shares do not add back "
                        "up to the requested grid (skipped "
                        f"{list(response.sweep.skipped_shares)})"
                    )
                if not response.sweep.notes:
                    report.violations.append(
                        "partial frontier carries no note explaining "
                        "the truncation"
                    )
                if len(point_events) != len(answered):
                    report.violations.append(
                        f"stream published {len(point_events)} "
                        f"sweep_point events for {len(answered)} "
                        "answered points"
                    )
                if response.gauges.get("sweep.partial") != 1:
                    report.violations.append(
                        "sweep.partial gauge not set on the partial "
                        "response"
                    )
            # The service must survive its worker's death: the same
            # registration answers a repeat sweep cleanly (the
            # scripted death is one-shot, the completed prefix's pairs
            # stayed cached).
            repeat_ticket = service.submit_sweep(
                SweepRequest(
                    workload="sweep-chaos",
                    budget_shares=_SWEEP_SHARES,
                    request_id="sweep-death-1",
                )
            )
            tickets.append(repeat_ticket)
            repeat, repeat_error = _outcome(repeat_ticket, report)
            if repeat_error is not None:
                report.violations.append(
                    "repeat sweep after the worker death failed "
                    f"({repeat_error!r}); the service did not recover"
                )
            elif repeat is not None and (
                repeat.partial or repeat.status != "completed"
            ):
                report.violations.append(
                    "repeat sweep after the worker death finished "
                    f"{repeat.status!r} (partial={repeat.partial}), "
                    "expected a clean full frontier"
                )
        finally:
            self._settle_and_check(service, tickets, report)
        return report

    def _run_malformed_lines(self) -> ScenarioReport:
        report = ScenarioReport("malformed_lines", self.seed)
        rng = random.Random(self.seed)
        recommend = json.dumps(
            {
                "id": "good-1",
                "op": "recommend",
                "workload": "chaos",
                "budget_share": _BUDGET_SHARE,
            }
        )
        truncated_with_id = json.dumps(
            {"id": "cut-1", "op": "recommend", "workload": "chaos"}
        )
        # Cut after the id field but before the closing brace, so the
        # line is unparseable yet the id is salvageable.
        truncated_with_id = truncated_with_id[
            : rng.randint(20, len(truncated_with_id) - 2)
        ]
        junk = "".join(
            chr(rng.randint(0x20, 0x2F)) for _ in range(16)
        )
        lines = [
            recommend,
            truncated_with_id,
            junk,
            "[" * 100_000,
            "[1,2,3]",
            json.dumps({"id": 9, "op": "frobnicate"}),
            json.dumps({"id": 10, "op": "recommend", "workload": "no"}),
            json.dumps({"op": "shutdown"}),
        ]
        service = AdvisorService(
            self._schema, max_concurrency=1, queue_depth=4
        )
        service.register_workload("chaos", self._workload)
        output = io.StringIO()
        handled = serve_loop(
            service,
            io.StringIO("\n".join(lines) + "\n"),
            output,
        )
        responses = [
            json.loads(line)
            for line in output.getvalue().splitlines()
        ]
        report.details["handled"] = handled
        report.details["codes"] = [
            response.get("code")
            for response in responses
            if not response.get("ok")
        ]
        if handled != len(lines):
            report.violations.append(
                f"loop handled {handled} of {len(lines)} lines"
            )
        if len(responses) != len(lines):
            report.violations.append(
                f"{len(lines)} lines produced {len(responses)} "
                "responses (want exactly one each)"
            )
        for response in responses:
            if not response.get("ok") and "code" not in response:
                report.violations.append(
                    f"error response without code: {response}"
                )
        by_id = {
            response.get("id"): response for response in responses
        }
        if "cut-1" not in by_id:
            report.violations.append(
                "truncated line's id was not salvaged into its error"
            )
        elif by_id["cut-1"].get("code") != "parse_error":
            report.violations.append(
                "truncated line's error is not a parse_error"
            )
        if by_id.get(9, {}).get("code") != "unknown_op":
            report.violations.append("unknown op has no unknown_op code")
        if by_id.get(10, {}).get("code") != "unknown_workload":
            report.violations.append(
                "unknown workload has no unknown_workload code"
            )
        if not by_id.get("good-1", {}).get("ok"):
            report.violations.append(
                "valid request drowned among the malformed ones"
            )
        statistics = service.statistics
        report.admitted = statistics.admitted
        report.completed = statistics.completed
        report.errored = statistics.failed
        if statistics.in_flight != 0:
            report.violations.append(
                f"in_flight stuck at {statistics.in_flight}"
            )
        if (
            statistics.admitted
            != statistics.completed + statistics.failed
        ):
            report.violations.append("admission counters inconsistent")
        return report

    def _run_client_disconnect(self) -> ScenarioReport:
        report = ScenarioReport("client_disconnect", self.seed)
        rng = random.Random(self.seed)
        # Protocol level: the client hangs up a couple of lines into a
        # streamed recommend; the loop must end gracefully and the
        # request must still be driven to its terminal outcome.
        lines = [
            json.dumps(
                {
                    "id": "s",
                    "op": "recommend",
                    "workload": "chaos",
                    "budget_share": _BUDGET_SHARE,
                    "stream": True,
                }
            ),
            json.dumps({"id": "mid", "op": "stats"}),
            json.dumps({"id": "late", "op": "stats"}),
        ]
        service = AdvisorService(
            self._schema, max_concurrency=1, queue_depth=4
        )
        service.register_workload("chaos", self._workload)
        # Lines produce >= 3 flushes in total, so a 1-2 line budget
        # guarantees the disconnect fires mid-conversation.
        drop_after = rng.randint(1, 2)
        output = _DroppingOutput(drop_after)
        handled = serve_loop(
            service,
            io.StringIO("\n".join(lines) + "\n"),
            output,
        )
        report.details["drop_after_lines"] = drop_after
        report.details["handled"] = handled
        if handled >= len(lines):
            report.violations.append(
                "loop outlived the client's disconnect "
                f"(handled {handled} of {len(lines)} lines)"
            )
        statistics = service.statistics
        report.admitted = statistics.admitted
        report.completed = statistics.completed
        report.degraded = statistics.degraded
        report.errored = statistics.failed
        if statistics.in_flight != 0:
            report.violations.append(
                f"in_flight stuck at {statistics.in_flight} after "
                "client disconnect"
            )
        if (
            statistics.admitted
            != statistics.completed + statistics.failed
        ):
            report.violations.append(
                "disconnected client's request lost from the counters"
            )
        # API level: N subscribers attach to one stream and every one
        # of them dies mid-iteration; no subscription may survive.
        streamers = rng.randint(4, 8)
        with AdvisorService(
            self._schema, max_concurrency=1, queue_depth=4
        ) as direct:
            direct.register_workload("chaos", self._workload)
            ticket = direct.submit(
                RecommendRequest(
                    workload="chaos",
                    budget_share=_BUDGET_SHARE,
                    request_id="leak-check",
                )
            )
            failures: list[str] = []

            def doomed_client(events_before_death: int) -> None:
                iterator = ticket.stream.events(timeout_s=5.0)
                try:
                    for _ in range(events_before_death):
                        next(iterator, None)
                finally:
                    # A real disconnect closes the generator through
                    # GC; close() is its deterministic equivalent.
                    iterator.close()

            threads = [
                threading.Thread(
                    target=doomed_client, args=(rng.randint(0, 6),)
                )
                for _ in range(streamers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=_OUTCOME_WAIT_S)
                if thread.is_alive():
                    failures.append("streaming client never exited")
            ticket.result(timeout_s=_OUTCOME_WAIT_S)
            report.violations.extend(failures)
            report.details["streamers"] = streamers
            if ticket.stream.subscribers != 0:
                report.violations.append(
                    f"{ticket.stream.subscribers} phantom "
                    f"subscriber(s) after {streamers} dead clients"
                )
        return report

    def _run_corrupt_snapshot(self) -> ScenarioReport:
        report = ScenarioReport("corrupt_snapshot", self.seed)
        rng = random.Random(self.seed)
        with tempfile.TemporaryDirectory(
            prefix="repro-chaos-"
        ) as tmp:
            directory = Path(tmp)
            # Seed service: register, warm up, snapshot on drain.
            with AdvisorService(
                self._schema,
                max_concurrency=1,
                queue_depth=4,
                snapshot_dir=directory,
            ) as seeder:
                seeder.register_workload("chaos", self._workload)
                seeder.recommend(
                    RecommendRequest(
                        workload="chaos", budget_share=_BUDGET_SHARE
                    )
                )
                baseline = _cache_export(seeder)
            snapshot = directory / "service-snapshot.json"
            pristine = snapshot.read_bytes()
            report.admitted += 1
            report.completed += 1

            # Control: an uncorrupted restart restores bit-identically.
            with AdvisorService(
                self._schema, snapshot_dir=directory
            ) as restarted:
                restore = restarted.restore_report
                if restore is None or not restore.restored:
                    report.violations.append(
                        "clean restart did not restore the snapshot"
                    )
                elif _cache_export(restarted) != baseline:
                    report.violations.append(
                        "restored what-if cache is not bit-identical"
                    )
                response = restarted.recommend(
                    RecommendRequest(
                        workload="chaos", budget_share=_BUDGET_SHARE
                    )
                )
                report.admitted += 1
                report.completed += 1
                if not response.warm:
                    report.violations.append(
                        "restored what-if cache did not make the "
                        "first post-restart request warm"
                    )

            corruptions = ("truncate", "bitflip", "version_skew")
            report.details["corruptions"] = list(corruptions)
            for corruption in corruptions:
                corrupted = _corrupt(pristine, corruption, rng)
                snapshot.write_bytes(corrupted)
                with AdvisorService(
                    self._schema, snapshot_dir=directory
                ) as victim:
                    restore = victim.restore_report
                    if restore is None or restore.restored:
                        report.violations.append(
                            f"{corruption}: corrupt snapshot was "
                            "restored anyway"
                        )
                        continue
                    if not restore.corrupt:
                        report.violations.append(
                            f"{corruption}: not detected as corrupt "
                            f"(reason={restore.reason!r})"
                        )
                    if victim.workloads():
                        report.violations.append(
                            f"{corruption}: cold start is not clean — "
                            f"workloads {victim.workloads()} survived"
                        )
                    if victim.statistics.snapshot_corruptions != 1:
                        report.violations.append(
                            f"{corruption}: corruption not counted"
                        )
                    # The service must still *work* after discarding.
                    victim.register_workload("chaos", self._workload)
                    response = victim.recommend(
                        RecommendRequest(
                            workload="chaos",
                            budget_share=_BUDGET_SHARE,
                        )
                    )
                    report.admitted += 1
                    report.completed += 1
                    if response.warm:
                        report.violations.append(
                            f"{corruption}: cold start claims warmth"
                        )
        return report

    def _run_clock_skew(self) -> ScenarioReport:
        report = ScenarioReport("clock_skew", self.seed)
        rng = random.Random(self.seed)
        clock = ManualClock()
        # Latency spikes on the injected source *are* the skew: every
        # spiked backend call jumps the shared service clock far past
        # any request deadline.
        source = FaultInjectingCostSource(
            AnalyticalCostSource(CostModel(self._schema)),
            spike_rate=0.05,
            spike_latency_s=float(rng.randint(30, 90)),
            seed=self.seed,
            clock=clock,
        )
        service = AdvisorService(
            self._schema,
            max_concurrency=1,
            queue_depth=8,
            cost_source=source,
            clock=clock,
            watchdog_interval_s=0.0,  # swept manually, on skewed time
            watchdog_grace_s=5.0,
        )
        tickets = []
        try:
            service.register_workload("chaos", self._workload)
            tickets = [
                service.submit(
                    RecommendRequest(
                        workload="chaos",
                        budget_share=_BUDGET_SHARE,
                        deadline_s=10.0,
                        request_id=f"skew-{i}",
                    )
                )
                for i in range(4)
            ]
            for ticket in tickets:
                _outcome(ticket, report)
            # All requests are terminal, so a watchdog sweep on the
            # (badly skewed) clock must find nothing to cancel.
            cancelled = service.run_watchdog_once()
            if cancelled != 0:
                report.violations.append(
                    f"watchdog cancelled {cancelled} finished "
                    "request(s) under clock skew"
                )
            spikes = source.statistics.injected_latency_spikes
            report.details["injected_spikes"] = spikes
            report.details["clock_end"] = clock.now
            if spikes == 0:
                report.violations.append(
                    "seed produced no latency spikes; scenario vacuous"
                )
            degraded = service.statistics.degraded
            if spikes and degraded == 0:
                report.violations.append(
                    "clock jumped past deadlines but nothing degraded"
                )
        finally:
            self._settle_and_check(service, tickets, report)
        return report


def _cache_export(service) -> str:
    """The service's what-if cache entries for its ``chaos``
    registration, per built kernel, as canonical JSON (equal strings
    mean bit-identical costs: ``json`` writes floats by ``repr``)."""
    queries = tuple(service.registry.get("chaos").workload)
    stacks = service.kernel_stacks
    return json.dumps(
        {
            kernel: stacks.stack(kernel)[1].export_cache(queries)
            for kernel in sorted(stacks.built_kernels())
        },
        sort_keys=True,
    )


def _corrupt(pristine: bytes, corruption: str, rng) -> bytes:
    if corruption == "truncate":
        # Keep at least the last three bytes off ("}" and the trailing
        # newline), so the result can never be complete JSON.
        return pristine[: rng.randint(1, len(pristine) - 3)]
    if corruption == "bitflip":
        # Flip a bit inside the payload region (past the envelope
        # keys) so the checksum, not the JSON parser, must catch it.
        data = bytearray(pristine)
        position = rng.randint(len(data) // 2, len(data) - 2)
        data[position] ^= 0x01
        return bytes(data)
    if corruption == "version_skew":
        envelope = json.loads(pristine.decode("utf-8"))
        envelope["version"] = 999
        return json.dumps(envelope).encode("utf-8")
    raise ValueError(f"unknown corruption {corruption!r}")


def main(argv=None) -> int:
    """CLI: run scenarios, print one JSON report line per scenario.

    Exits 0 only when every invariant of every scenario held.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.chaos",
        description="seeded chaos scenarios for the advisor service",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed"
    )
    parser.add_argument(
        "--scenario",
        choices=SCENARIOS + ("all",),
        default="all",
        help="which scenario to run (default: all)",
    )
    arguments = parser.parse_args(argv)
    harness = ChaosHarness(seed=arguments.seed)
    if arguments.scenario == "all":
        reports = harness.run_all()
    else:
        reports = [harness.run(arguments.scenario)]
    ok = True
    for report in reports:
        print(json.dumps(report.to_dict(), sort_keys=True))
        ok = ok and report.ok
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
