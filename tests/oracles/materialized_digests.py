"""Materializing plane-digest oracle.

The shipping :func:`repro.core.chaos.artifact_digests` hashes each plane
store's lines as they stream, and the telescope's lines come from the
slice-wise encoder of :meth:`~repro.telescope.flowtuple.FlowTupleWriter.
lines_for_day`.  This oracle is the code they replaced: unbox every flow
row, format it field by field, sort the lines into day order, join each
plane's whole text and hash it once.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.net.ipv4 import int_to_ip
from repro.telescope.flowtuple import FlowTupleRecord

__all__ = ["materialized_digests", "scalar_encode"]


def scalar_encode(record: FlowTupleRecord) -> str:
    """One FlowTuple CSV line, each field through ``str``."""
    return ",".join(
        str(value)
        for value in (
            record.time,
            int_to_ip(record.src_ip),
            int_to_ip(record.dst_ip),
            record.src_port,
            record.dst_port,
            int(record.protocol),
            record.ttl,
            record.tcp_flags,
            record.ip_len,
            record.packet_count,
            int(record.is_spoofed),
            int(record.is_masscan),
            record.country,
            record.asn,
        )
    )


def materialized_digests(results) -> Dict[str, str]:
    """SHA-256 of each plane's whole joined text."""
    # A stable sort by day is the per-day file order: days ascending,
    # insertion order within a day.
    rows = sorted(results.telescope.writer.iter_rows(), key=lambda r: r.day)
    flow_lines = [scalar_encode(row) for row in rows]
    return {
        "scan.merged_db": _digest(results.merged_db.to_jsonl()),
        "attacks.log": _digest(results.schedule.log.to_jsonl()),
        "telescope.flowtuples": _digest("\n".join(flow_lines)),
    }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
