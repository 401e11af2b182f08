"""Durable fleet checkpoints: versioned, canonical, atomic.

A checkpoint is one JSON document holding the whole fleet's resume
state (:meth:`~repro.fleet.manager.FleetManager.to_state`) plus the
daemon's ingest sequence number.  The write is atomic - serialized to a
sibling temp file, then :func:`os.replace`'d over the target - so a
crash mid-write leaves the previous checkpoint intact, never a torn
file.  Atomic rename alone makes the checkpoint durable against the
failure the daemon actually promises to survive - the process being
killed (the page cache outlives the process) - so the per-write
``fsync`` is opt-in (``sync=True``, the ``[service] checkpoint_sync``
knob) for deployments that also want power-loss durability.  Either
way a damaged file degrades loudly: :func:`read_checkpoint` refuses it
and the operator falls back to a cold start plus client replay.  The
document is versioned (:data:`CHECKPOINT_VERSION`) and
:func:`read_checkpoint` refuses any other version outright: resume
state is replayed into live detectors, and guessing at a different
schema would corrupt a run silently.

Ordering contract (what makes resume exact): the daemon persists
incident-store appends *before* it writes a checkpoint, so a restored
store is always at or ahead of the checkpoint's cursor.  The session's
resume floor then recognizes re-processed intervals as replays; see
:meth:`repro.core.session.ExtractionSession.from_state`.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Mapping
from typing import Any

from repro.errors import CheckpointError
from repro.fleet.manager import FleetManager
from repro.state import canonical_json, count, mapping, read_fields

#: Schema version of the checkpoint document.  Bump it whenever any
#: ``to_state`` payload changes shape; old files are rejected, never
#: migrated silently (CONTRIBUTING documents the discipline).
#: Version 2 added the optional ``federation`` block (buffered interval
#: digests + the federator's detector bank) for federated daemons.
#: Version 3 keeps only what the next interval reads per detector clone
#: (previous counts, previous KL, training diffs until calibrated) and
#: buffers digests in their version-2 wire form.  Version 4 buffers
#: digests in their version-3 wire form (per-feature value counts).
#: Version 5 drops the federation block's ``reports``: the federation
#: store is their one durable record, as each pipeline's store is.
CHECKPOINT_VERSION = 5

#: What every checkpoint document carries beside its version (a
#: federated daemon's also has a ``federation`` block).
_ENVELOPE = {"sequence": count, "fleet": mapping}


def fleet_checkpoint(
    fleet: FleetManager,
    sequence: int,
    federation: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Snapshot ``fleet`` into a checkpoint document.

    ``sequence`` is the daemon's ingest sequence number - the count of
    accepted ingest batches the snapshot covers.  A client replaying a
    stream after a crash reads it back from the resumed daemon and
    re-sends everything after it.  ``federation`` is the optional
    federator resume state
    (:meth:`~repro.federation.federator.Federator.to_state`) of a
    daemon that also accepts ``POST /digest``.
    """
    if sequence < 0:
        raise CheckpointError(f"sequence must be >= 0: {sequence}")
    doc: dict[str, Any] = {
        "version": CHECKPOINT_VERSION,
        "sequence": int(sequence),
        "fleet": fleet.to_state(),
    }
    if federation is not None:
        doc["federation"] = dict(federation)
    return doc


def write_checkpoint(
    path: str | os.PathLike[str],
    doc: Mapping[str, Any],
    *,
    sync: bool = False,
) -> int:
    """Atomically persist a checkpoint document; returns bytes written.

    Canonical JSON (sorted keys, minimal separators) keeps the file
    deterministic for a given state - byte-identical state produces a
    byte-identical checkpoint, which the equivalence tests lean on.
    ``sync=True`` additionally fsyncs before the rename; the default
    skips it because process-kill durability needs only the atomic
    rename.  The ``service_http`` ledger workload in
    ``benchmarks/perf/`` times the default writes
    (``service.checkpoint_s``).
    """
    try:
        payload = canonical_json(doc).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint state is not JSON-serializable: {exc}"
        ) from exc
    target = os.fspath(path)
    tmp = f"{target}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            if sync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except OSError as exc:
        # A failed write or rename must not leave its staging file
        # behind (the previous checkpoint is untouched either way).
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise CheckpointError(
            f"cannot write checkpoint {target}: {exc}"
        ) from exc
    return len(payload)


def read_checkpoint(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Load and validate a checkpoint document.

    Rejects missing files, malformed JSON, non-document payloads, and -
    most importantly - any schema version other than
    :data:`CHECKPOINT_VERSION`.
    """
    target = os.fspath(path)
    try:
        with open(target, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {target}: {exc}"
        ) from exc
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        raise CheckpointError(
            f"{target}: corrupt checkpoint (invalid JSON: {exc})"
        ) from exc
    if not isinstance(doc, dict):
        raise CheckpointError(
            f"{target}: checkpoint must be a JSON object, "
            f"got {type(doc).__name__}"
        )
    version = doc.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{target}: checkpoint schema version {version!r} != "
            f"{CHECKPOINT_VERSION}; this build cannot restore it "
            f"(checkpoints are rejected across schema changes, never "
            f"migrated silently)"
        )
    read_fields(f"checkpoint {target}", doc, CheckpointError, **_ENVELOPE)
    return doc


def restore_fleet(fleet: FleetManager, doc: Mapping[str, Any]) -> int:
    """Replay a checkpoint document into a freshly built fleet.

    Returns the ingest sequence number the checkpoint covers - the
    daemon resumes counting from it, and clients replay everything
    after it.
    """
    fields = read_fields("checkpoint", doc, CheckpointError, **_ENVELOPE)
    fleet.from_state(fields["fleet"])
    sequence: int = fields["sequence"]
    return sequence
