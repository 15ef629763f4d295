"""Attack-event records captured by the lab honeypots.

"All the attacks gathered on the honeypots are exported daily and imported
into the database" (Section 3.3.2).  :class:`AttackEvent` is one row of that
database; :class:`EventStore` is the store with the aggregation surface that
Tables 7/8 and Figures 3/4/7/8/9 query.

The store is a :class:`~repro.core.columns.ColumnTable`, like
:class:`~repro.scanner.records.ScanDatabase` on the scan plane: one column
per :class:`AttackEvent` field (NumPy-backed for the numeric ones, lists
for the labels), and every row it yields is an immutable
:class:`AttackEvent`.  On top of the columns the store keeps
per-honeypot / per-protocol / per-source **indexes** (position lists),
built on first use and rebuilt once the store has grown since, so the ~8
analysis consumers stop paying a full O(n) scan per query.

The query surface:

* :meth:`EventStore.where` — typed column filters,
  ``log.where(honeypot="Cowrie", attack_type=AttackType.DICTIONARY)``;
* :meth:`EventStore.count_by` — grouped counts,
  ``log.count_by("protocol", unique="source")``;
* the index-backed aggregations the paper's tables and figures read
  (:meth:`EventStore.by_honeypot`, :meth:`EventStore.unique_sources`,
  :meth:`EventStore.multistage_candidates`, ...).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.core.columns import ColumnTable
from repro.core.taxonomy import AttackType
from repro.net.ipv4 import int_to_ip
from repro.protocols.base import ProtocolId

__all__ = ["AttackEvent", "EventStore"]


class AttackEvent(NamedTuple):
    """One attack interaction observed by a honeypot."""

    honeypot: str
    protocol: ProtocolId
    source: int
    day: int            # 0-based day within the observation month
    timestamp: float    # seconds since the month's start
    attack_type: AttackType
    #: actor label for debugging/traceability (e.g. "mirai", "shodan").
    actor: str = ""
    #: short free-text of what happened ("CONNECT; PUBLISH $SYS/...").
    summary: str = ""
    #: SHA-256 of a dropped/injected binary, when one was captured.
    malware_hash: str = ""
    #: bytes sent by the attacker in this session (for pcap-style analysis).
    request_bytes: int = 0

    @property
    def source_text(self) -> str:
        """Dotted-quad source."""
        return int_to_ip(self.source)

    def to_json(self) -> str:
        """One JSONL row (the daily-export format of §3.3.2)."""
        return json.dumps({
            "honeypot": self.honeypot,
            "protocol": str(self.protocol),
            "source": int_to_ip(self.source),
            "day": self.day,
            "timestamp": self.timestamp,
            "attack_type": str(self.attack_type),
            "actor": self.actor,
            "summary": self.summary,
            "malware_hash": self.malware_hash,
            "request_bytes": self.request_bytes,
        })

    @classmethod
    def from_json(cls, line: str) -> "AttackEvent":
        """Parse one JSONL row back into an event."""
        from repro.net.ipv4 import ip_to_int

        row = json.loads(line)
        return cls(
            honeypot=row["honeypot"],
            protocol=ProtocolId(row["protocol"]),
            source=ip_to_int(row["source"]),
            day=row["day"],
            timestamp=row["timestamp"],
            attack_type=AttackType(row["attack_type"]),
            actor=row.get("actor", ""),
            summary=row.get("summary", ""),
            malware_hash=row.get("malware_hash", ""),
            request_bytes=row.get("request_bytes", 0),
        )


class EventStore(ColumnTable):
    """Queryable columnar store of attack events across the deployment."""

    ROW = AttackEvent
    NUMERIC = {
        "source": "u64", "day": "i64", "timestamp": "f64",
        "request_bytes": "u64",
    }

    def __init__(self, events: Optional[Iterable[tuple]] = None) -> None:
        # Position indexes, valid while the store still has the length
        # they were built at (``_indexed_at``).
        self._indexed_at = -1
        self._by_honeypot: Dict[str, List[int]] = {}
        self._by_protocol: Dict[ProtocolId, List[int]] = {}
        self._by_source: Dict[int, List[int]] = {}
        self._multistage_cache: Optional[Dict[int, List[AttackEvent]]] = None
        super().__init__(events)

    @staticmethod
    def canonical_key(row: tuple) -> tuple:
        """Canonical ``(timestamp, source, honeypot, protocol)`` merge
        order — the order sharded attack months merge into, making worker
        count (and task execution order generally) unobservable."""
        return (row[4], row[2], row[0], str(row[1]))

    def append_batch(self, rows: Iterable[tuple]) -> int:
        """Append ``(honeypot, protocol, source, day, timestamp,
        attack_type, actor, summary, malware_hash, request_bytes)`` tuples
        in one columnar pass."""
        return super().append_batch(rows)

    def where(self, **filters) -> "EventStore":
        """New store with the rows matching every field filter."""
        return super().where(**filters)

    # -- indexes ---------------------------------------------------------

    def _ensure_indexes(self) -> None:
        """Build the three position indexes in one pass over the columns,
        unless the store has not grown since the last build."""
        if self._indexed_at == len(self):
            return
        by_honeypot: Dict[str, List[int]] = {}
        by_protocol: Dict[ProtocolId, List[int]] = {}
        by_source: Dict[int, List[int]] = {}
        for index, (honeypot, protocol, source) in enumerate(zip(
            self._columns["honeypot"], self._columns["protocol"],
            self._columns["source"],
        )):
            by_honeypot.setdefault(honeypot, []).append(index)
            by_protocol.setdefault(protocol, []).append(index)
            by_source.setdefault(source, []).append(index)
        self._by_honeypot = by_honeypot
        self._by_protocol = by_protocol
        self._by_source = by_source
        self._multistage_cache = None
        self._indexed_at = len(self)

    # -- aggregations used by the paper's tables/figures -------------------

    def by_honeypot(self, honeypot: str) -> List[AttackEvent]:
        """Events captured by one honeypot (index-backed)."""
        self._ensure_indexes()
        return list(self._take(self._by_honeypot.get(honeypot, [])))

    def count_by_honeypot_protocol(self) -> Dict[Tuple[str, str], int]:
        """(honeypot, protocol) → events — Table 7's first matrix."""
        counts: Dict[Tuple[str, str], int] = {}
        for honeypot, protocol in zip(
            self._columns["honeypot"], self._columns["protocol"]
        ):
            key = (honeypot, str(protocol))
            counts[key] = counts.get(key, 0) + 1
        return counts

    def count_by_protocol(self) -> Dict[str, int]:
        """protocol → events."""
        counts: Dict[str, int] = {}
        for protocol in self._columns["protocol"]:
            key = str(protocol)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def count_by_day(self) -> Dict[int, int]:
        """day → events — Figure 8's series."""
        counts: Dict[int, int] = {}
        for day in self._columns["day"]:
            counts[day] = counts.get(day, 0) + 1
        return counts

    def count_by_type(
        self, protocol: Optional[ProtocolId] = None
    ) -> Dict[AttackType, int]:
        """attack type → events, optionally for one protocol — Figures 4/7."""
        attack_types = self._columns["attack_type"]
        if protocol is not None:
            self._ensure_indexes()
            attack_types = [
                attack_types[index]
                for index in self._by_protocol.get(protocol, [])
            ]
        counts: Dict[AttackType, int] = {}
        for attack_type in attack_types:
            counts[attack_type] = counts.get(attack_type, 0) + 1
        return counts

    def unique_sources(
        self,
        honeypot: Optional[str] = None,
        protocol: Optional[ProtocolId] = None,
    ) -> Set[int]:
        """Distinct source addresses, optionally filtered (index-backed)."""
        sources = self._columns["source"]
        if honeypot is None and protocol is None:
            return set(np.unique(sources.view()).tolist())
        self._ensure_indexes()
        if honeypot is None:
            positions = self._by_protocol.get(protocol, [])
            return {sources[index] for index in positions}
        positions = self._by_honeypot.get(honeypot, [])
        if protocol is None:
            return {sources[index] for index in positions}
        protocols = self._columns["protocol"]
        return {
            sources[index] for index in positions
            if protocols[index] == protocol
        }

    def multistage_candidates(self) -> Dict[int, List[AttackEvent]]:
        """source → its events sorted by time, for sources touching
        multiple protocols — the Figure 9 detection input.

        Memoized with the indexes: ``multistage_monitor`` and
        ``analysis.multistage`` both call this, and the cache is rebuilt
        only once the store has grown.
        """
        self._ensure_indexes()
        if self._multistage_cache is not None:
            return self._multistage_cache
        protocols = self._columns["protocol"]
        timestamps = self._columns["timestamp"].tolist()
        result: Dict[int, List[AttackEvent]] = {}
        for source, positions in self._by_source.items():
            distinct = {protocols[index] for index in positions}
            if len(distinct) >= 2:
                ordered = sorted(positions, key=timestamps.__getitem__)
                result[source] = list(self._take(ordered))
        self._multistage_cache = result
        return result

    def malware_hashes(self) -> Set[str]:
        """Distinct captured malware hashes (Table 13's corpus)."""
        return {digest for digest in self._columns["malware_hash"] if digest}

    # -- persistence (the daily export of §3.3.2) -------------------------

    @classmethod
    def from_jsonl(cls, text: str) -> "EventStore":
        """Load a previously exported log."""
        return cls(
            AttackEvent.from_json(line)
            for line in text.splitlines()
            if line.strip()
        )
