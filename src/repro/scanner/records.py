"""Scan result records and the in-memory result database.

The paper stores "IP address, port, response, banner" per responding host
"in a database for further analysis" (Section 3.1.1).  :class:`ScanRecord`
is that row; :class:`ScanDatabase` is the store.

The database is a :class:`~repro.core.columns.ColumnTable`: one column per
:class:`ScanRecord` field (NumPy-backed for the address, port and
timestamp, lists for the rest), and every row it yields — from
``iter_rows``, ``row`` or an observer batch — is an immutable
:class:`ScanRecord`.  This module adds only the scan plane's canonical
``(address, port, protocol)`` order and its own queries:

* :meth:`ScanDatabase.where` — typed column filters,
  ``db.where(protocol=ProtocolId.MQTT, port=(1883, 8883))``;
* :meth:`ScanDatabase.count_by` — grouped counts,
  ``db.count_by("protocol", unique="address")``;
* :meth:`ScanDatabase.merge` — the dataset-correlation union.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, NamedTuple, Optional, Set

import numpy as np

from repro.core.columns import ColumnTable
from repro.net.ipv4 import int_to_ip
from repro.protocols.base import ProtocolId, TransportKind

__all__ = ["ScanRecord", "ScanDatabase"]


class ScanRecord(NamedTuple):
    """One responding (address, port, protocol) observation."""

    address: int
    port: int
    protocol: ProtocolId
    transport: TransportKind
    #: Unsolicited bytes at connect time (TCP banner grab).
    banner: bytes = b""
    #: Reply to the protocol-specific probe (handshake or UDP query).
    response: bytes = b""
    timestamp: float = 0.0
    source: str = "zmap"

    @property
    def address_text(self) -> str:
        """Dotted-quad address."""
        return int_to_ip(self.address)

    @property
    def banner_text(self) -> str:
        """Banner decoded leniently for signature matching."""
        return self.banner.decode("utf-8", errors="backslashreplace")

    @property
    def response_text(self) -> str:
        """Response decoded leniently for signature matching."""
        return self.response.decode("utf-8", errors="backslashreplace")

    def to_json(self) -> str:
        """One JSONL row (bytes hex-encoded)."""
        return json.dumps(
            {
                "ip": int_to_ip(self.address),
                "port": self.port,
                "protocol": str(self.protocol),
                "transport": self.transport.value,
                "banner": self.banner.hex(),
                "response": self.response.hex(),
                "timestamp": self.timestamp,
                "source": self.source,
            }
        )


class ScanDatabase(ColumnTable):
    """Queryable columnar store of scan records."""

    ROW = ScanRecord
    NUMERIC = {"address": "u64", "port": "u32", "timestamp": "f64"}

    @staticmethod
    def canonical_key(row: tuple) -> tuple:
        """Canonical ``(address, port, protocol)`` merge order — the order
        sharded campaigns merge into, making shard count (and probe order
        generally) unobservable.  Protocols compare as their string values
        (:class:`~repro.protocols.base.ProtocolId` is a ``str`` enum)."""
        return (row[0], row[1], row[2])

    def append_batch(self, rows: Iterable[tuple]) -> int:
        """Append ``(address, port, protocol, transport, banner, response,
        timestamp, source)`` tuples in one columnar pass."""
        return super().append_batch(rows)

    def where(self, **filters) -> "ScanDatabase":
        """New database with the rows matching every field filter."""
        return super().where(**filters)

    def unique_hosts(self, protocol: Optional[ProtocolId] = None) -> Set[int]:
        """Distinct responding addresses (optionally per protocol)."""
        addresses = self._columns["address"]
        if protocol is None:
            return set(np.unique(addresses.view()).tolist())
        return {
            address
            for address, value in zip(addresses, self._columns["protocol"])
            if value == protocol
        }

    def counts_by_protocol(self) -> Dict[ProtocolId, int]:
        """Unique responding hosts per protocol — Table 4's unit."""
        return self.count_by("protocol", unique="address")

    def set_source(self, source: str) -> None:
        """Relabel every row's provenance in one pass (vantage/dataset
        attribution)."""
        self._columns["source"] = [source] * len(self)

    def merge(self, other: "ScanDatabase") -> "ScanDatabase":
        """Union of two databases, deduplicated on (address, port, protocol).

        This is the paper's dataset-correlation step: ZMap results merged
        with Project Sonar / Shodan rows.  The first occurrence wins, so
        our own scan's richer banners are preferred over dataset rows.
        The keys are read off the key columns and the kept rows appended
        as column slices; a side that contributes no row appends nothing.
        """
        merged = ScanDatabase()
        seen: Set[tuple] = set()
        for table in (self, other):
            columns = table._columns
            kept: List[int] = []
            for position, key in enumerate(zip(
                columns["address"].tolist(),
                columns["port"].tolist(),
                columns["protocol"],
            )):
                if key not in seen:
                    seen.add(key)
                    kept.append(position)
            if len(kept) == len(table):
                merged._extend_table(table)
            elif kept:
                merged._extend_table(table._take(kept))
        return merged
