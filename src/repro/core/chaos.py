"""Streamed SHA-256 digests of the three measurement-plane stores.

:func:`artifact_digests` is the byte-identity oracle of the plane
goldens, the invariance property (``tests/test_invariance.py``), the
resume smoke and the study benchmark: two runs produced the same scan
database, attack event log and FlowTuple capture exactly when their
digests match.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable

from repro.core.columns import joined_pieces

__all__ = ["artifact_digests"]


def artifact_digests(results) -> Dict[str, str]:
    """SHA-256 over the canonical serialization of each plane store: its
    lines joined by ``"\\n"`` (the JSONL rows; the flow tuples day by
    day), hashed as they stream so no plane's text is ever held whole."""
    writer = results.telescope.writer
    return {
        "scan.merged_db": _digest(results.merged_db.iter_jsonl()),
        "attacks.log": _digest(results.schedule.log.iter_jsonl()),
        "telescope.flowtuples": _digest(
            line for day in writer.days() for line in writer.lines_for_day(day)
        ),
    }


def _digest(lines: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for piece in joined_pieces(lines):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()
