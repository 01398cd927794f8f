"""In-memory spans around the program's public entry points.

A span is ``(id, name, start, end, parent, request)``.  Calls into the
same layer from the same parent span are merged into one record that
also counts them (a calling-context tree), so the million cache lookups
of a warm recommend cost a counter, not a million records.  A call into
a layer from inside that same layer records nothing of its own, so a
layer's record covers the whole call from the layer above, and its self
time is its time minus its children's.  Records stay in memory and are
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Public methods per pricing layer: whatever the layer above calls is
# among them; private helpers stay unwrapped.
FACADE_METHODS = (
    "sequential_cost", "index_cost", "sequential_costs", "index_costs",
    "pair_costs", "maintenance_cost", "configuration_cost",
    "workload_cost", "multi_configuration_cost", "multi_workload_cost",
    "cost_table",
)
SOURCE_METHODS = (
    "query_cost", "maintenance_cost", "multi_index_cost", "query_costs",
    "sequential_costs", "pair_costs", "maintenance_costs",
)


class Span:
    """One calling context of a layer: its calls, merged."""

    __slots__ = ("id", "name", "parent", "request", "count", "seconds",
                 "start", "end", "children")

    def __init__(self, span_id, name, parent, request) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.count = 0
        self.seconds = 0.0
        self.start = self.end = None
        self.children: dict[str, Span] = {}

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(
            child.seconds for child in self.children.values()
        )


class Recorder:
    """Span store shared by every thread of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self.request: str | None = None
        """Id of the request in flight (one client sends one at a time)."""
        self._ids = itertools.count(1)
        self._roots: dict[tuple[str, str | None], Span] = {}
        self._local = threading.local()
        self._restore: list = []

    def _enter(self, name: str):
        """Push ``name``'s span; ``None`` if already inside ``name``."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
            if parent.name == name:
                return None
            span = parent.children.get(name)
            if span is None:
                span = parent.children[name] = self._new(
                    name, parent.id, parent.request
                )
        else:
            key = (name, self.request)
            span = self._roots.get(key)
            if span is None:
                span = self._roots[key] = self._new(name, 0, self.request)
        stack.append(span)
        return span

    def _new(self, name, parent, request) -> Span:
        span = Span(next(self._ids), name, parent, request)
        self.spans.append(span)
        return span

    def _exit(self, span: Span, start: float) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        span.count += 1
        span.seconds += end - start
        if span.start is None:
            span.start = start
        span.end = end

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as a span of ``name``."""
        span = self._enter(name) if self.enabled else None
        start = time.perf_counter()
        try:
            yield
        finally:
            if span is not None:
                self._exit(span, start)

    def _traced(self, name: str, function):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return function(*args, **kwargs)
            span = recorder._enter(name)
            if span is None:
                return function(*args, **kwargs)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                recorder._exit(span, start)

        return traced

    def wrap_methods(self, target, name: str, methods) -> None:
        """Trace ``target``'s ``methods`` in place (instance attributes
        shadow the class's until :meth:`unwrap`)."""
        for method in methods:
            bound = getattr(target, method, None)
            if bound is not None:
                self.replace(target, method, self._traced(name, bound))

    def wrap_attribute(self, owner, attribute: str, name: str) -> None:
        """Trace a function or method as ``owner`` resolves it."""
        self.replace(
            owner, attribute, self._traced(name, getattr(owner, attribute))
        )

    def replace(self, owner, attribute: str, value) -> None:
        """Set ``owner.attribute`` until :meth:`unwrap`."""
        had = attribute in vars(owner)
        original = getattr(owner, attribute)
        self._restore.append((owner, attribute, had, original))
        setattr(owner, attribute, value)

    def proxy(self, target, name: str, methods):
        """A stand-in for ``target`` whose ``methods`` are traced; calls
        ``target`` makes on itself stay untraced."""
        return _Proxy(target, {
            method: self._traced(name, getattr(target, method))
            for method in methods
            if hasattr(target, method)
        })

    def unwrap(self) -> None:
        """Undo every :meth:`replace`, latest first."""
        while self._restore:
            owner, attribute, had, original = self._restore.pop()
            if had:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def by_layer(self) -> dict[tuple[str, str], dict[str, float]]:
        """``count``, ``seconds`` and ``self`` seconds per (layer, kind
        of request), the kind being the request id up to its ``-``."""
        layers: dict = defaultdict(
            lambda: {"count": 0, "seconds": 0.0, "self": 0.0}
        )
        for span in self.spans:
            entry = layers[span.name, (span.request or "").split("-")[0]]
            entry["count"] += span.count
            entry["seconds"] += span.seconds
            entry["self"] += span.self_seconds
        return layers

    def unaccounted_share(self) -> float:
        """Share of ``request`` span time that no layer span covers:
        neither a child of the request span nor a span another thread
        opened for the same request."""
        total = covered = 0.0
        requests = set()
        for span in self.spans:
            if span.name == "request":
                requests.add(span.request)
                total += span.seconds
                covered += span.seconds - span.self_seconds
        for span in self.spans:
            if span.parent == 0 and span.name != "request" and (
                span.request in requests
            ):
                covered += span.seconds
        return 1.0 - covered / total if total else 0.0

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as stream:
            for span in self.spans:
                stream.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request": span.request, "count": span.count,
                    "seconds": span.seconds,
                }) + "\n")


class _Proxy:
    def __init__(self, target, overrides: dict) -> None:
        self.__dict__.update(overrides)
        self.__dict__["_target"] = target

    def __getattr__(self, name):
        return getattr(self.__dict__["_target"], name)
