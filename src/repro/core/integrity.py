"""Self-verifying artifact envelopes and corruption quarantine.

The resume path introduced with the per-task journal *trusts* every
pickle it finds on disk: a bit-flipped or truncated entry that still
unpickles would silently poison a "byte-identical" resumed campaign.
Long-running measurement archives treat that as a storage-integrity
problem, not a hope — CAIDA's telescope archives and the validated ZMap
pipelines detect damaged or stale artifacts instead of serving them.
This module is that discipline for the repro pipeline:

* :func:`wrap_envelope` / :func:`unwrap_envelope` — every journal entry
  and on-disk phase-cache entry is stored as a **checksummed envelope**:
  a magic string, a length-prefixed JSON header carrying the schema
  version, the artifact kind and key, the writing config's fingerprint
  and the SHA-256 of the payload, then the raw pickle payload.  A flip
  anywhere in the blob — header or payload — fails verification with a
  typed :class:`~repro.net.errors.EnvelopeError` naming the *reason*
  (``checksum-mismatch``, ``stale-schema``, ``key-mismatch``, …);

* :func:`quarantine_file` — a damaged or stale entry is never deleted
  and never re-read: it is moved aside into a ``quarantine/`` directory
  next to the store (renamed ``<key>.quarantined``, deduplicated, with a
  ``.reason.json`` sidecar) and described by a :class:`QuarantineRecord`
  that the readers surface into ``StudyMetrics``.  The caller then
  treats the entry as a miss and transparently recomputes — self-healing
  resume, proven deterministic by the ``store.corrupt`` fault site in
  :mod:`repro.core.faults`.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.errors import EnvelopeError

__all__ = [
    "ENVELOPE_MAGIC",
    "QuarantineRecord",
    "payload_sha256",
    "wrap_envelope",
    "unwrap_envelope",
    "quarantine_file",
]

#: Leading bytes of every envelope; doubles as the on-disk format version
#: (a future layout change bumps the trailing digit).
ENVELOPE_MAGIC = b"REPRO-ENVELOPE-1\n"

_HEADER_LEN = struct.Struct("!I")


def payload_sha256(payload: bytes) -> str:
    """Hex SHA-256 of an envelope payload (the stored checksum)."""
    return hashlib.sha256(payload).hexdigest()


def wrap_envelope(
    payload: bytes,
    *,
    schema: int,
    kind: str,
    key: str = "",
    fingerprint: str = "",
) -> bytes:
    """Seal ``payload`` (a pickle) into a self-verifying envelope.

    ``schema`` is the writer's layout version, ``kind`` the artifact
    family (``"journal"`` or ``"phase"``), ``key`` the entry identity the
    reader will demand back, and ``fingerprint`` the writing config's
    content hash — so a stale entry (old schema, foreign config, file
    landed under the wrong name) is rejected as firmly as a damaged one.
    """
    header = json.dumps(
        {
            "schema": schema,
            "kind": kind,
            "key": key,
            "fingerprint": fingerprint,
            "length": len(payload),
            "sha256": payload_sha256(payload),
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return ENVELOPE_MAGIC + _HEADER_LEN.pack(len(header)) + header + payload


def unwrap_envelope(
    blob: bytes,
    *,
    schema: int,
    kind: str,
    key: str = "",
    fingerprint: str = "",
) -> bytes:
    """Verify an envelope and return its payload bytes.

    Raises :class:`~repro.net.errors.EnvelopeError` with a stable
    ``reason`` token on any damage or staleness; the caller is expected
    to quarantine the source file and treat the entry as a miss.
    """
    magic_end = len(ENVELOPE_MAGIC)
    if len(blob) < magic_end + _HEADER_LEN.size:
        raise EnvelopeError(
            f"envelope truncated at {len(blob)} bytes", reason="truncated"
        )
    if blob[:magic_end] != ENVELOPE_MAGIC:
        raise EnvelopeError(
            "not an artifact envelope (bad magic)", reason="bad-magic"
        )
    (header_len,) = _HEADER_LEN.unpack_from(blob, magic_end)
    header_end = magic_end + _HEADER_LEN.size + header_len
    if header_end > len(blob):
        raise EnvelopeError(
            "envelope header extends past the blob", reason="truncated"
        )
    try:
        header = json.loads(
            blob[magic_end + _HEADER_LEN.size:header_end].decode("utf-8")
        )
        if not isinstance(header, dict):
            raise ValueError("header is not an object")
    except (ValueError, UnicodeDecodeError) as error:
        raise EnvelopeError(
            f"envelope header unreadable: {error}", reason="malformed-header"
        ) from None
    if header.get("schema") != schema:
        raise EnvelopeError(
            f"envelope schema {header.get('schema')!r} != expected {schema}",
            reason="stale-schema",
        )
    if header.get("kind") != kind:
        raise EnvelopeError(
            f"envelope kind {header.get('kind')!r} != expected {kind!r}",
            reason="kind-mismatch",
        )
    if header.get("key") != key:
        raise EnvelopeError(
            f"envelope key {header.get('key')!r} != expected {key!r}",
            reason="key-mismatch",
        )
    if header.get("fingerprint") != fingerprint:
        raise EnvelopeError(
            "envelope written under a different config fingerprint",
            reason="stale-fingerprint",
        )
    payload = blob[header_end:]
    if header.get("length") != len(payload):
        raise EnvelopeError(
            f"payload length {len(payload)} != declared {header.get('length')!r}",
            reason="length-mismatch",
        )
    if payload_sha256(payload) != header.get("sha256"):
        raise EnvelopeError(
            "payload SHA-256 does not match the envelope checksum",
            reason="checksum-mismatch",
        )
    return payload


@dataclass(frozen=True)
class QuarantineRecord:
    """Why one stored entry was moved aside instead of being served."""

    #: Entry identity (task key or phase-cache key) the reader expected.
    key: str
    #: Stable :class:`~repro.net.errors.EnvelopeError` reason token, or
    #: ``"unpicklable"`` when the envelope verified but the payload did not
    #: unpickle.
    reason: str
    #: Which reader detected the damage (``journal.load``, ``phase.load``).
    stage: str
    #: Where the damaged file lived.
    source_path: str
    #: Where it lives now (``…/quarantine/<key>.quarantined``).
    quarantined_path: str

    def to_dict(self) -> Dict[str, str]:
        """JSON-ready form for metrics and the ``.reason.json`` sidecar."""
        return {
            "key": self.key,
            "reason": self.reason,
            "stage": self.stage,
            "source_path": self.source_path,
            "quarantined_path": self.quarantined_path,
        }


def quarantine_file(
    path: str, *, key: str, reason: str, stage: str
) -> Optional[QuarantineRecord]:
    """Move a damaged entry into ``quarantine/`` beside its store.

    The file is *renamed*, never deleted, so operators can inspect what
    went wrong; it is never re-read because readers only open the
    canonical ``<key>.pkl`` name.  Repeated quarantines of the same key
    get deduplicated names (``<key>.2.quarantined``, …).  A
    ``.reason.json`` sidecar records the :class:`QuarantineRecord`.
    Best-effort: returns ``None`` when the move itself fails (the caller
    still treats the entry as a miss).
    """
    directory = os.path.join(os.path.dirname(path), "quarantine")
    stem = os.path.basename(path)
    if stem.endswith(".pkl"):
        stem = stem[: -len(".pkl")]
    try:
        os.makedirs(directory, exist_ok=True)
        destination = os.path.join(directory, f"{stem}.quarantined")
        serial = 1
        while os.path.exists(destination):
            serial += 1
            destination = os.path.join(
                directory, f"{stem}.{serial}.quarantined"
            )
        os.replace(path, destination)
    except OSError:
        return None
    record = QuarantineRecord(
        key=key,
        reason=reason,
        stage=stage,
        source_path=path,
        quarantined_path=destination,
    )
    try:
        with open(f"{destination}.reason.json", "w") as handle:
            json.dump(record.to_dict(), handle, indent=2)
    except OSError:
        pass  # the quarantined file itself is the load-bearing part
    return record
