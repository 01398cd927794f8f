"""Registered-workload lifecycle and scoped cache invalidation.

The service's whole reason to exist is residency: what-if cache
entries and compiled workload packs survive between requests.  That
makes workload *change* the dangerous operation — this module owns it.
``update`` and ``evict`` invalidate the shared what-if caches *scoped
to the affected queries* (via ``WhatIfOptimizer.clear_cache(queries)``),
so the entries and counters of every other registered workload survive
untouched.

Invalidation is content-keyed, like the caches: a query that appears
verbatim in both the old and new version of a workload keeps its
entries across an ``update``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.advisor import KernelStacks
from repro.exceptions import ServiceError, UnknownWorkloadError
from repro.workload.query import Query, Workload

__all__ = ["WorkloadRegistration", "WorkloadRegistry"]


@dataclass
class WorkloadRegistration:
    """One resident workload and which of its versions were priced."""

    name: str
    workload: Workload
    version: int = 1
    served: int = 0
    """Completed recommend requests against this registration."""
    priced: dict[str, int] = field(default_factory=dict)
    """Cost kernel -> the last workload version a request priced on
    that kernel's what-if stack (per kernel, like the stacks)."""

    def is_priced(self, kernel: str, version: int) -> bool:
        """True when an earlier request priced ``version`` on
        ``kernel`` — a request at that version is *warm*."""
        return self.priced.get(kernel) == version

    def mark_priced(self, kernel: str, version: int) -> None:
        """Record that a request priced ``version`` on ``kernel``
        (never moves the marker back to an older version)."""
        if self.priced.get(kernel, 0) < version:
            self.priced[kernel] = version


class WorkloadRegistry:
    """Named workloads sharing one schema and one set of kernel stacks."""

    def __init__(self, schema, stacks: KernelStacks) -> None:
        self._schema = schema
        self._stacks = stacks
        self._lock = threading.Lock()
        self._registrations: dict[str, WorkloadRegistration] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._registrations)

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._registrations))

    def registrations(self) -> tuple[WorkloadRegistration, ...]:
        """All registrations, sorted by name (for snapshots)."""
        with self._lock:
            return tuple(
                registration
                for _, registration in sorted(
                    self._registrations.items()
                )
            )

    def get(self, name: str) -> WorkloadRegistration:
        with self._lock:
            registration = self._registrations.get(name)
        if registration is None:
            raise UnknownWorkloadError(
                f"no workload registered under {name!r}"
            )
        return registration

    def register(
        self, name: str, workload: Workload
    ) -> WorkloadRegistration:
        """Register a new workload; rejects duplicates and foreign
        schemas (use :meth:`update` to replace)."""
        self._check_schema(workload)
        with self._lock:
            if name in self._registrations:
                raise ServiceError(
                    f"workload {name!r} is already registered; "
                    "use update_workload to replace it"
                )
            registration = WorkloadRegistration(
                name=name, workload=workload
            )
            self._registrations[name] = registration
            return registration

    def restore(
        self,
        name: str,
        workload: Workload,
        *,
        version: int,
        served: int = 0,
    ) -> WorkloadRegistration:
        """Reinstall a registration from a durability snapshot.

        Unlike :meth:`register` the restored registration keeps its
        pre-crash version (so clients correlating on
        ``workload_version`` see continuity) and served count.  Only
        valid into a name that is not currently registered — restore
        happens at service startup, before any client traffic.
        """
        self._check_schema(workload)
        if version < 1:
            raise ServiceError(
                f"restored version must be >= 1, got {version}"
            )
        with self._lock:
            if name in self._registrations:
                raise ServiceError(
                    f"workload {name!r} is already registered; "
                    "cannot restore over it"
                )
            registration = WorkloadRegistration(
                name=name,
                workload=workload,
                version=version,
                served=served,
            )
            self._registrations[name] = registration
            return registration

    def update(
        self, name: str, workload: Workload
    ) -> tuple[WorkloadRegistration, int]:
        """Replace a registered workload in place.

        Returns the bumped registration and the number of shared-cache
        entries invalidated.  Only entries of *dropped or changed*
        queries are cleared — queries carried over verbatim keep their
        cached costs, which is what makes small workload drift cheap.
        """
        self._check_schema(workload)
        with self._lock:
            registration = self._registrations.get(name)
            if registration is None:
                raise UnknownWorkloadError(
                    f"no workload registered under {name!r}"
                )
            carried = {query.cache_key for query in workload}
            stale = [
                query
                for query in registration.workload
                if query.cache_key not in carried
            ]
            invalidated = self._invalidate(stale)
            registration.workload = workload
            registration.version += 1
            return registration, invalidated

    def evict(self, name: str) -> int:
        """Drop a registration; returns invalidated cache entries."""
        with self._lock:
            registration = self._registrations.pop(name, None)
            if registration is None:
                raise UnknownWorkloadError(
                    f"no workload registered under {name!r}"
                )
            return self._invalidate(list(registration.workload))

    def _invalidate(self, queries: list[Query]) -> int:
        # Clears by query content key across every kernel stack built so
        # far.  A query shared verbatim by another registration loses
        # its entries too — a repricing hiccup, never a correctness
        # problem, since the caches are content-keyed and deterministic.
        if not queries:
            return 0
        removed = 0
        for kernel in self._stacks.built_kernels():
            _, optimizer = self._stacks.stack(kernel)
            removed += optimizer.clear_cache(queries)
        return removed

    def _check_schema(self, workload: Workload) -> None:
        if workload.schema is not self._schema:
            raise ServiceError(
                "workload schema differs from the service schema; "
                "one AdvisorService serves exactly one schema"
            )
