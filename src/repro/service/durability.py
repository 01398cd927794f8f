"""Durable snapshots of the advisor service's resident tuning state.

A long-running :class:`~repro.service.AdvisorService` accumulates
expensive state — registered workloads and the shared what-if caches
their requests priced.  A crash or restart would throw all of it away
and force every client back through a cold start.  This module writes
that state to disk and brings it back:

* **Versioned** — the envelope carries a format name and version; a
  reader refusing an unknown version falls back to a cold start instead
  of misinterpreting bytes.
* **Checksummed** — a SHA-256 digest over the canonical payload JSON
  detects torn or bit-flipped files.
* **Atomic** — snapshots are written to a temp file in the same
  directory, fsynced, and ``os.replace``d into place, so a crash
  mid-write leaves the previous snapshot intact (and a stray temp file,
  which restore ignores).

Restore is **never fatal**: a missing, truncated, corrupt, version-skewed
or schema-mismatched snapshot is logged, counted, and discarded — the
service boots cold.  A successful restore is exact: what-if costs come
back bit-identical (JSON floats round-trip ``float64`` exactly through
``repr``), so a post-restart warm request selects the same steps a
pre-crash warm request would have, without a backend call.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ExperimentError, SnapshotError
from repro.persistence import schema_to_dict
from repro.workload.query import Query, QueryKind, Workload

__all__ = [
    "RestoreReport",
    "SNAPSHOT_FILENAME",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "read_snapshot",
    "restore_registry",
    "schema_fingerprint",
    "snapshot_path",
    "write_snapshot",
]

logger = logging.getLogger("repro.service.durability")

SNAPSHOT_FORMAT = "repro-service-snapshot"
SNAPSHOT_VERSION = 2
SNAPSHOT_FILENAME = "service-snapshot.json"

_RESTORE_OK = "ok"
_RESTORE_MISSING = "missing"


@dataclass(frozen=True)
class RestoreReport:
    """What a restore attempt found and did.

    ``reason`` is ``"ok"`` on success, ``"missing"`` when no snapshot
    exists (a normal first boot), and otherwise a short machine-stable
    tag of why the snapshot was discarded (``"corrupt-json"``,
    ``"checksum-mismatch"``, ``"version-skew"``, ``"schema-mismatch"``,
    ``"malformed-payload"``).
    """

    restored: bool
    reason: str
    sequence: int = 0
    workloads: int = 0
    whatif_entries: int = 0
    """What-if cache entries (costs and maintenance) installed."""

    @property
    def corrupt(self) -> bool:
        """True when a snapshot existed but had to be discarded."""
        return not self.restored and self.reason != _RESTORE_MISSING


def schema_fingerprint(schema) -> str:
    """Stable digest of a schema's full content.

    Snapshots embed it so a restore against a *different* schema (same
    directory reused, schema drifted between releases) is detected as
    skew instead of producing cached costs that misprice everything.
    """
    canonical = json.dumps(
        schema_to_dict(schema), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def snapshot_path(directory: str | Path) -> Path:
    """Where the current snapshot of a service directory lives."""
    return Path(directory) / SNAPSHOT_FILENAME


def _workload_payload(registration, stacks=None) -> dict:
    """One registration (queries, in workload order, plus its costs).

    Query *order* is significant: the what-if cache export below is
    keyed by query position, so restore must rebuild it verbatim.

    When ``stacks`` (the service's :class:`~repro.advisor.KernelStacks`)
    is given, the shared what-if caches are exported scoped to this
    registration's queries, one section per built kernel — that is what
    lets a restored service answer a repeat request with *zero* backend
    calls.
    """
    queries = tuple(registration.workload)
    whatif = {}
    if stacks is not None:
        for kernel in sorted(stacks.built_kernels()):
            _, optimizer = stacks.stack(kernel)
            entries = optimizer.export_cache(queries)
            if entries["cost"] or entries["maintenance"]:
                whatif[kernel] = entries
    return {
        "name": registration.name,
        "version": registration.version,
        "served": registration.served,
        "queries": [
            {
                "query_id": query.query_id,
                "table": query.table_name,
                "attributes": sorted(query.attributes),
                "frequency": query.frequency,
                "kind": query.kind.value,
            }
            for query in registration.workload
        ],
        "whatif": whatif,
    }


def write_snapshot(
    directory: str | Path, *, schema, registry, sequence: int, stacks=None
) -> Path:
    """Atomically write one snapshot; returns the snapshot path.

    Raises :class:`~repro.exceptions.SnapshotError` when the directory
    cannot be created or the file cannot be written — a service that
    was *asked* to persist must not pretend it did.
    """
    directory = Path(directory)
    payload = {
        "schema_fingerprint": schema_fingerprint(schema),
        "sequence": sequence,
        "workloads": [
            _workload_payload(registration, stacks)
            for registration in registry.registrations()
        ],
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    envelope = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "checksum": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        "payload": payload,
    }
    target = snapshot_path(directory)
    temporary = directory / f".{SNAPSHOT_FILENAME}.{sequence}.tmp"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(
                envelope, handle, sort_keys=True, separators=(",", ":")
            )
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
    except OSError as error:
        try:
            temporary.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise SnapshotError(
            f"cannot write snapshot to {target}: {error}"
        ) from error
    return target


def read_snapshot(
    directory: str | Path,
) -> tuple[dict | None, str]:
    """Read and verify a snapshot; ``(payload, reason)``.

    ``payload`` is ``None`` unless the file exists, parses, carries the
    supported format/version, and matches its checksum.  Every failure
    mode maps to a stable ``reason`` tag (see :class:`RestoreReport`)
    and is logged — never raised.
    """
    path = snapshot_path(directory)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None, _RESTORE_MISSING
    except OSError as error:
        logger.warning("snapshot %s unreadable: %s", path, error)
        return None, "unreadable"
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as error:
        logger.warning(
            "snapshot %s is corrupt (bad JSON, likely a partial "
            "write): %s",
            path,
            error,
        )
        return None, "corrupt-json"
    if not isinstance(envelope, dict) or not isinstance(
        envelope.get("payload"), dict
    ):
        logger.warning("snapshot %s has no payload object", path)
        return None, "malformed-payload"
    if (
        envelope.get("format") != SNAPSHOT_FORMAT
        or envelope.get("version") != SNAPSHOT_VERSION
    ):
        logger.warning(
            "snapshot %s has format %r version %r; this build reads "
            "%r version %r — discarding",
            path,
            envelope.get("format"),
            envelope.get("version"),
            SNAPSHOT_FORMAT,
            SNAPSHOT_VERSION,
        )
        return None, "version-skew"
    payload = envelope["payload"]
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != envelope.get("checksum"):
        logger.warning(
            "snapshot %s failed its checksum — discarding", path
        )
        return None, "checksum-mismatch"
    return payload, _RESTORE_OK


def restore_registry(
    directory: str | Path, *, schema, registry, stacks=None
) -> RestoreReport:
    """Restore registrations and what-if caches from a snapshot, if sane.

    Corruption of any flavour (including a schema fingerprint that no
    longer matches) degrades to a cold start: nothing is installed into
    ``registry`` and the report says why.  On success every snapshotted
    workload is re-registered at its old version, its what-if cache
    entries are re-installed bit-identically into ``stacks``, and each
    kernel it carried entries for counts as priced at that version (the
    first request there runs warm).
    """
    payload, reason = read_snapshot(directory)
    if payload is None:
        return RestoreReport(restored=False, reason=reason)
    if payload.get("schema_fingerprint") != schema_fingerprint(schema):
        logger.warning(
            "snapshot in %s was written for a different schema — "
            "discarding",
            directory,
        )
        return RestoreReport(restored=False, reason="schema-mismatch")
    try:
        workloads = payload["workloads"]
        sequence = int(payload["sequence"])
        restored_entries = 0
        for entry in workloads:
            queries = [
                Query(
                    query_id=record["query_id"],
                    table_name=record["table"],
                    attributes=frozenset(record["attributes"]),
                    frequency=record["frequency"],
                    kind=QueryKind(record["kind"]),
                )
                for record in entry["queries"]
            ]
            registration = registry.restore(
                entry["name"],
                Workload(schema, queries),
                version=int(entry["version"]),
                served=int(entry["served"]),
            )
            if stacks is not None:
                for kernel, cached in entry["whatif"].items():
                    _, optimizer = stacks.stack(kernel)
                    restored_entries += optimizer.import_cache(
                        queries, cached
                    )
                    registration.mark_priced(
                        kernel, registration.version
                    )
    except (
        KeyError,
        TypeError,
        ValueError,
        AttributeError,
        ExperimentError,
    ) as error:
        # A checksum-valid snapshot with impossible content can only
        # come from a writer bug or a handcrafted file; either way the
        # contract is the same — log, discard, cold start.  Workloads
        # already installed are evicted so the registry is not left
        # half-restored.
        logger.warning(
            "snapshot in %s has malformed content (%s) — discarding",
            directory,
            error,
        )
        for name in registry.names():
            registry.evict(name)
        return RestoreReport(restored=False, reason="malformed-payload")
    logger.info(
        "restored %d workload(s), %d what-if entries from snapshot "
        "sequence %d in %s",
        len(workloads),
        restored_entries,
        sequence,
        directory,
    )
    return RestoreReport(
        restored=True,
        reason=_RESTORE_OK,
        sequence=sequence,
        workloads=len(workloads),
        whatif_entries=restored_entries,
    )
