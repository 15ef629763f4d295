"""Attack-event records captured by the lab honeypots.

"All the attacks gathered on the honeypots are exported daily and imported
into the database" (Section 3.3.2).  :class:`AttackEvent` is one row of that
database; :class:`EventStore` is the store with the aggregation surface that
Tables 7/8 and Figures 3/4/7/8/9 query.

Storage is *columnar*, mirroring :class:`~repro.scanner.records.ScanDatabase`
on the scan plane: parallel NumPy-backed columns for the numeric fields,
lists for the labels, and lightweight slotted :class:`EventRow` views that
read and write straight through to the columns.  On top of the columns the
store keeps per-honeypot / per-protocol / per-source **indexes** (position
lists) that are built once on first use and invalidated on append, so the
~8 analysis consumers stop paying a full O(n) scan per query.

The query surface:

* :meth:`EventStore.where` — typed column filters,
  ``log.where(honeypot="Cowrie", attack_type=AttackType.DICTIONARY)``;
* :meth:`EventStore.count_by` — grouped counts,
  ``log.count_by("protocol", unique="source")``;
* :meth:`EventStore.group_by_source` — the index itself as row lists, for
  recurrence/origin analyses that used to nest O(sources x events) scans;
* :meth:`EventStore.iter_rows` / :meth:`EventStore.column` — row views and
  raw column access for tight loops.

Numeric filters in ``where``, numeric ``count_by`` keys and
``sorted_canonical`` run as boolean masks, ``np.unique`` groups and a
stable ``lexsort`` over the :mod:`repro.core.columns` buffers, and hand
back native Python scalars, so serialized artifacts match a row-by-row
recomputation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.columns import (
    NumpyColumn,
    first_occurrence_counts,
    make_numeric_column,
    make_object_column,
)
from repro.core.taxonomy import AttackType
from repro.net.ipv4 import int_to_ip
from repro.protocols.base import ProtocolId

__all__ = ["AttackEvent", "EventRow", "EventStore"]

#: Fields every event-like object (AttackEvent, EventRow, duck-typed rows)
#: carries, in canonical column order.
_FIELDS = (
    "honeypot",
    "protocol",
    "source",
    "day",
    "timestamp",
    "attack_type",
    "actor",
    "summary",
    "malware_hash",
    "request_bytes",
)


def _event_json(event: Any) -> str:
    """One JSONL row (the daily-export format of §3.3.2)."""
    return json.dumps({
        "honeypot": event.honeypot,
        "protocol": str(event.protocol),
        "source": int_to_ip(event.source),
        "day": event.day,
        "timestamp": event.timestamp,
        "attack_type": str(event.attack_type),
        "actor": event.actor,
        "summary": event.summary,
        "malware_hash": event.malware_hash,
        "request_bytes": event.request_bytes,
    })


@dataclass
class AttackEvent:
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
        return _event_json(self)

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


class EventRow:
    """A slotted view of one store row.

    Reads come straight from the columns; attribute writes go straight
    back (and invalidate the store's indexes), so legacy code treating
    events as objects keeps working against the columnar store.  Rows
    compare equal to any event-like object with the same field values.
    """

    __slots__ = ("_store", "_i")

    def __init__(self, store: "EventStore", index: int) -> None:
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "_i", index)

    # -- column-backed attributes ---------------------------------------

    @property
    def honeypot(self) -> str:
        return self._store._honeypots[self._i]

    @honeypot.setter
    def honeypot(self, value: str) -> None:
        self._store._honeypots[self._i] = value
        self._store._invalidate()

    @property
    def protocol(self) -> ProtocolId:
        return self._store._protocols[self._i]

    @protocol.setter
    def protocol(self, value: ProtocolId) -> None:
        self._store._protocols[self._i] = value
        self._store._invalidate()

    @property
    def source(self) -> int:
        return self._store._sources[self._i]

    @source.setter
    def source(self, value: int) -> None:
        self._store._sources[self._i] = value
        self._store._invalidate()

    @property
    def day(self) -> int:
        return self._store._days[self._i]

    @day.setter
    def day(self, value: int) -> None:
        self._store._days[self._i] = value

    @property
    def timestamp(self) -> float:
        return self._store._timestamps[self._i]

    @timestamp.setter
    def timestamp(self, value: float) -> None:
        self._store._timestamps[self._i] = value

    @property
    def attack_type(self) -> AttackType:
        return self._store._attack_types[self._i]

    @attack_type.setter
    def attack_type(self, value: AttackType) -> None:
        self._store._attack_types[self._i] = value

    @property
    def actor(self) -> str:
        return self._store._actors[self._i]

    @actor.setter
    def actor(self, value: str) -> None:
        self._store._actors[self._i] = value

    @property
    def summary(self) -> str:
        return self._store._summaries[self._i]

    @summary.setter
    def summary(self, value: str) -> None:
        self._store._summaries[self._i] = value

    @property
    def malware_hash(self) -> str:
        return self._store._malware_hashes[self._i]

    @malware_hash.setter
    def malware_hash(self, value: str) -> None:
        self._store._malware_hashes[self._i] = value

    @property
    def request_bytes(self) -> int:
        return self._store._request_bytes[self._i]

    @request_bytes.setter
    def request_bytes(self, value: int) -> None:
        self._store._request_bytes[self._i] = value

    # -- derived views (shared with AttackEvent) -------------------------

    @property
    def source_text(self) -> str:
        """Dotted-quad source."""
        return int_to_ip(self.source)

    def to_json(self) -> str:
        """One JSONL row (the daily-export format of §3.3.2)."""
        return _event_json(self)

    def __eq__(self, other: Any) -> bool:
        try:
            return all(
                getattr(self, name) == getattr(other, name) for name in _FIELDS
            )
        except AttributeError:
            return NotImplemented

    def __repr__(self) -> str:
        return (
            f"EventRow(honeypot={self.honeypot!r}, protocol={self.protocol}, "
            f"source={self.source_text!r}, day={self.day}, "
            f"attack_type={self.attack_type})"
        )


#: Scalar-or-collection filter value accepted by :meth:`EventStore.where`.
_FilterValue = Union[Any, Iterable[Any]]

_COLLECTIONS = (set, frozenset, list, tuple, range)


def _as_membership(value: _FilterValue) -> Callable[[Any], bool]:
    """Normalize a scalar or collection filter to a membership predicate."""
    if isinstance(value, _COLLECTIONS):
        allowed = set(value)
        return lambda item: item in allowed
    return lambda item: item == value


class EventStore:
    """Queryable columnar store of attack events across the deployment.

    Internally one compact column per field plus lazy position indexes;
    externally both the legacy event-at-a-time API (``add`` / iteration /
    ``by_honeypot``) and the typed query API (``where`` / ``count_by`` /
    ``group_by_source`` / ``iter_rows``).
    """

    def __init__(
        self,
        events: Optional[Iterable[Any]] = None,
    ) -> None:
        #: Batched ingestions performed (one per :meth:`append_batch`);
        #: surfaced through ``StudyMetrics`` for ``--metrics-json``.
        self.batch_appends = 0
        self._honeypots: List[str] = make_object_column()
        self._protocols: List[ProtocolId] = make_object_column()
        self._sources = make_numeric_column("u64")
        self._days = make_numeric_column("i64")
        self._timestamps = make_numeric_column("f64")
        self._attack_types: List[AttackType] = make_object_column()
        self._actors: List[str] = make_object_column()
        self._summaries: List[str] = make_object_column()
        self._malware_hashes: List[str] = make_object_column()
        self._request_bytes = make_numeric_column("u64")
        # position indexes, built once on demand and dropped on append
        self._by_honeypot: Optional[Dict[str, List[int]]] = None
        self._by_protocol: Optional[Dict[ProtocolId, List[int]]] = None
        self._by_source: Optional[Dict[int, List[int]]] = None
        self._multistage_cache: Optional[Dict[int, List[EventRow]]] = None
        #: Batch-emission observers (see :meth:`subscribe`).
        self._observers: List[Callable[[List["EventRow"]], None]] = []
        for event in events or []:
            self.add(event)

    # -- ingestion -------------------------------------------------------

    def subscribe(
        self, callback: Callable[[List["EventRow"]], None]
    ) -> Callable[[List["EventRow"]], None]:
        """Register a batch-emission observer.

        ``callback`` receives the row views of every chunk ingested
        through :meth:`append_batch` — how the streaming layer taps the
        attack month as the scheduler's canonical merge lands
        (:meth:`~repro.stream.bus.EventBus.tap`).  The per-event hot
        path (``append_event``) never notifies.  Returns the callback
        for symmetric :meth:`unsubscribe`.
        """
        self._observers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable) -> None:
        """Remove a previously subscribed observer."""
        self._observers.remove(callback)

    def _notify(self, start: int, count: int) -> None:
        if not self._observers or not count:
            return
        rows = [EventRow(self, index) for index in range(start, start + count)]
        for callback in self._observers:
            callback(rows)

    def _invalidate(self) -> None:
        """Drop the lazy indexes (any append or key-column write)."""
        self._by_honeypot = None
        self._by_protocol = None
        self._by_source = None
        self._multistage_cache = None

    def append_event(
        self,
        honeypot: str,
        protocol: ProtocolId,
        source: int,
        day: int,
        timestamp: float,
        attack_type: AttackType,
        actor: str = "",
        summary: str = "",
        malware_hash: str = "",
        request_bytes: int = 0,
    ) -> None:
        """Append one row straight into the columns (the scheduler hot
        path — no intermediate event object)."""
        self._honeypots.append(honeypot)
        self._protocols.append(protocol)
        self._sources.append(source)
        self._days.append(day)
        self._timestamps.append(timestamp)
        self._attack_types.append(attack_type)
        self._actors.append(actor)
        self._summaries.append(summary)
        self._malware_hashes.append(malware_hash)
        self._request_bytes.append(request_bytes)
        if self._by_source is not None:
            self._invalidate()

    def add(self, event: Any) -> None:
        """Record one event-like object (anything with the ten fields)."""
        self.append_event(
            event.honeypot,
            event.protocol,
            event.source,
            event.day,
            event.timestamp,
            event.attack_type,
            event.actor,
            event.summary,
            event.malware_hash,
            event.request_bytes,
        )

    def extend(self, events: Iterable[Any]) -> None:
        """Record many events."""
        for event in events:
            self.add(event)

    def append_batch(self, rows: Iterable[tuple]) -> int:
        """Append many ``(honeypot, protocol, source, day, timestamp,
        attack_type, actor, summary, malware_hash, request_bytes)`` tuples
        in one columnar pass.

        The attack scheduler's canonical merge feeds its sorted rows
        through here — one ``extend`` per column (a single buffer copy for
        the numeric columns) instead of one ``append_event`` per row.
        Returns the row count.
        """
        if not isinstance(rows, list):
            rows = list(rows)
        if rows:
            columns = tuple(zip(*rows))
            self._honeypots.extend(columns[0])
            self._protocols.extend(columns[1])
            self._sources.extend(columns[2])
            self._days.extend(columns[3])
            self._timestamps.extend(columns[4])
            self._attack_types.extend(columns[5])
            self._actors.extend(columns[6])
            self._summaries.extend(columns[7])
            self._malware_hashes.extend(columns[8])
            self._request_bytes.extend(columns[9])
            self._invalidate()
        self.batch_appends += 1
        self._notify(len(self._sources) - len(rows), len(rows))
        return len(rows)

    # -- row access ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sources)

    def row(self, index: int) -> EventRow:
        """The view of one row by position."""
        if not 0 <= index < len(self._sources):
            raise IndexError(f"row index {index} out of range")
        return EventRow(self, index)

    def iter_rows(self) -> Iterator[EventRow]:
        """Iterate lightweight row views in insertion order."""
        for index in range(len(self._sources)):
            yield EventRow(self, index)

    def __iter__(self) -> Iterator[EventRow]:
        return self.iter_rows()

    def column(self, name: str) -> Any:
        """Direct (read-only by convention) access to one column sequence.

        ``name`` is a field name: ``"honeypot"``, ``"protocol"``,
        ``"source"``, ``"day"``, ``"timestamp"``, ``"attack_type"``,
        ``"actor"``, ``"summary"``, ``"malware_hash"`` or
        ``"request_bytes"``.  Numeric columns come back as
        :class:`~repro.core.columns.NumpyColumn` objects whose ``view()``
        is the live ``ndarray``; label columns as lists.
        """
        if name not in _FIELDS:
            raise KeyError(f"no such column: {name!r}")
        if name == "request_bytes":
            return self._request_bytes
        return getattr(self, f"_{name}s")

    # -- indexes ---------------------------------------------------------

    def _ensure_indexes(self) -> None:
        """Build the three position indexes in one pass over the columns."""
        if self._by_source is not None:
            return
        by_honeypot: Dict[str, List[int]] = {}
        by_protocol: Dict[ProtocolId, List[int]] = {}
        by_source: Dict[int, List[int]] = {}
        honeypots, protocols, sources = (
            self._honeypots, self._protocols, self._sources
        )
        for index in range(len(sources)):
            by_honeypot.setdefault(honeypots[index], []).append(index)
            by_protocol.setdefault(protocols[index], []).append(index)
            by_source.setdefault(sources[index], []).append(index)
        self._by_honeypot = by_honeypot
        self._by_protocol = by_protocol
        self._by_source = by_source

    def _candidates(
        self,
        honeypot: Optional[_FilterValue],
        protocol: Optional[_FilterValue],
        source: Optional[_FilterValue],
    ) -> Optional[List[int]]:
        """Candidate positions from the most selective scalar index filter
        (None → no indexed filter applies, scan everything)."""
        self._ensure_indexes()
        best: Optional[List[int]] = None
        for value, index in (
            (honeypot, self._by_honeypot),
            (protocol, self._by_protocol),
            (source, self._by_source),
        ):
            if value is None or isinstance(value, _COLLECTIONS):
                continue
            positions = index.get(value, [])  # type: ignore[union-attr]
            if best is None or len(positions) < len(best):
                best = positions
        return best

    # -- typed query API -------------------------------------------------

    def where(
        self,
        *,
        honeypot: Optional[_FilterValue] = None,
        protocol: Optional[_FilterValue] = None,
        source: Optional[_FilterValue] = None,
        day: Optional[_FilterValue] = None,
        attack_type: Optional[_FilterValue] = None,
        actor: Optional[_FilterValue] = None,
        predicate: Optional[Callable[[EventRow], bool]] = None,
    ) -> "EventStore":
        """New store with the rows matching every given filter.

        Column filters accept a scalar or a collection (membership test);
        scalar honeypot/protocol/source filters are served from the
        position indexes.  ``predicate`` is an escape hatch receiving
        each :class:`EventRow`.

        When no position index applies, the numeric filters (``source``,
        ``day``) collapse to one boolean mask over the columns before any
        row view is built; surviving positions run the object filters
        row-wise, in insertion order.
        """
        positions = self._candidates(honeypot, protocol, source)
        if positions is None and (source is not None or day is not None):
            mask = np.ones(len(self._sources), dtype=bool)
            for column, value in ((self._sources, source), (self._days, day)):
                if value is None:
                    continue
                view = column.view()
                if isinstance(value, _COLLECTIONS):
                    mask &= np.isin(view, list(value))
                else:
                    mask &= view == value
            positions = np.nonzero(mask)[0].tolist()
            source = day = None  # already applied vectorized
        tests: List[Callable[[EventRow], bool]] = []
        for name, value in (
            ("honeypot", honeypot),
            ("protocol", protocol),
            ("source", source),
            ("day", day),
            ("attack_type", attack_type),
            ("actor", actor),
        ):
            if value is not None:
                member = _as_membership(value)
                tests.append(lambda row, n=name, m=member: m(getattr(row, n)))
        if predicate is not None:
            tests.append(predicate)
        if positions is None:
            positions = range(len(self._sources))  # type: ignore[assignment]
        selected = EventStore()
        for index in positions:
            row = EventRow(self, index)
            if all(test(row) for test in tests):
                selected.add(row)
        return selected

    def count_by(
        self, column: str, *, unique: Optional[str] = None
    ) -> Dict[Any, int]:
        """Row (or distinct-value) counts grouped by one column.

        ``log.count_by("protocol")`` counts events per protocol;
        ``log.count_by("protocol", unique="source")`` counts *distinct
        sources* per protocol — Table 7's second matrix unit.

        Numeric key columns group via ``np.unique`` in first-occurrence
        order (the dict-insertion order of a counting loop); object
        columns keep the Python loop.
        """
        keys = self.column(column)
        if unique is None:
            if isinstance(keys, NumpyColumn):
                return first_occurrence_counts(keys.view())
            counts: Dict[Any, int] = {}
            for key in keys:
                counts[key] = counts.get(key, 0) + 1
            return counts
        values = self.column(unique)
        groups: Dict[Any, Set[Any]] = {}
        for key, value in zip(keys, values):
            groups.setdefault(key, set()).add(value)
        return {key: len(members) for key, members in groups.items()}

    def group_by_source(self) -> Dict[int, List[EventRow]]:
        """source → its events in insertion order, from the index.

        The recurrence and origin analyses iterate this instead of
        re-scanning the full log once per source.
        """
        self._ensure_indexes()
        return {
            source: [EventRow(self, index) for index in positions]
            for source, positions in self._by_source.items()
        }

    # -- aggregations used by the paper's tables/figures -------------------

    def by_honeypot(self, honeypot: str) -> List[EventRow]:
        """Events captured by one honeypot (index-backed)."""
        self._ensure_indexes()
        positions = self._by_honeypot.get(honeypot, [])
        return [EventRow(self, index) for index in positions]

    def count_by_honeypot_protocol(self) -> Dict[Tuple[str, str], int]:
        """(honeypot, protocol) → events — Table 7's first matrix."""
        counts: Dict[Tuple[str, str], int] = {}
        for honeypot, protocol in zip(self._honeypots, self._protocols):
            key = (honeypot, str(protocol))
            counts[key] = counts.get(key, 0) + 1
        return counts

    def count_by_protocol(self) -> Dict[str, int]:
        """protocol → events."""
        counts: Dict[str, int] = {}
        for protocol in self._protocols:
            key = str(protocol)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def count_by_day(self) -> Dict[int, int]:
        """day → events — Figure 8's series."""
        counts: Dict[int, int] = {}
        for day in self._days:
            counts[day] = counts.get(day, 0) + 1
        return counts

    def count_by_type(
        self, protocol: Optional[ProtocolId] = None
    ) -> Dict[AttackType, int]:
        """attack type → events, optionally for one protocol — Figures 4/7."""
        counts: Dict[AttackType, int] = {}
        if protocol is None:
            for attack_type in self._attack_types:
                counts[attack_type] = counts.get(attack_type, 0) + 1
            return counts
        self._ensure_indexes()
        attack_types = self._attack_types
        for index in self._by_protocol.get(protocol, []):
            attack_type = attack_types[index]
            counts[attack_type] = counts.get(attack_type, 0) + 1
        return counts

    def unique_sources(
        self,
        honeypot: Optional[str] = None,
        protocol: Optional[ProtocolId] = None,
    ) -> Set[int]:
        """Distinct source addresses, optionally filtered (index-backed)."""
        if honeypot is None and protocol is None:
            return set(np.unique(self._sources.view()).tolist())
        self._ensure_indexes()
        sources = self._sources
        if honeypot is None:
            positions = self._by_protocol.get(protocol, [])
            return {sources[index] for index in positions}
        positions = self._by_honeypot.get(honeypot, [])
        if protocol is None:
            return {sources[index] for index in positions}
        protocols = self._protocols
        return {
            sources[index] for index in positions
            if protocols[index] == protocol
        }

    def multistage_candidates(self) -> Dict[int, List[EventRow]]:
        """source → its events sorted by time, for sources touching
        multiple protocols — the Figure 9 detection input.

        Memoized on the index layer: ``multistage_monitor`` and
        ``analysis.multistage`` both call this, and it used to rebuild the
        per-source dict from scratch on every call.  The cache drops with
        the indexes on append.
        """
        if self._multistage_cache is not None:
            return self._multistage_cache
        self._ensure_indexes()
        protocols, timestamps = self._protocols, self._timestamps
        result: Dict[int, List[EventRow]] = {}
        for source, positions in self._by_source.items():
            distinct = {protocols[index] for index in positions}
            if len(distinct) >= 2:
                ordered = sorted(positions, key=timestamps.__getitem__)
                result[source] = [EventRow(self, index) for index in ordered]
        self._multistage_cache = result
        return result

    def malware_hashes(self) -> Set[str]:
        """Distinct captured malware hashes (Table 13's corpus)."""
        return {digest for digest in self._malware_hashes if digest}

    def _take(self, order: np.ndarray) -> "EventStore":
        """New store with rows re-ordered by ``order`` positions
        (NumPy fancy-indexing on numeric columns, list picks on objects)."""
        result = EventStore()
        result._sources = self._sources.take(order)
        result._days = self._days.take(order)
        result._timestamps = self._timestamps.take(order)
        result._request_bytes = self._request_bytes.take(order)
        picks = order.tolist()
        result._honeypots = [self._honeypots[i] for i in picks]
        result._protocols = [self._protocols[i] for i in picks]
        result._attack_types = [self._attack_types[i] for i in picks]
        result._actors = [self._actors[i] for i in picks]
        result._summaries = [self._summaries[i] for i in picks]
        result._malware_hashes = [self._malware_hashes[i] for i in picks]
        return result

    def sorted_canonical(self) -> "EventStore":
        """New store in canonical ``(timestamp, source, honeypot)`` order —
        the order sharded attack months merge into, making worker count
        (and task execution order generally) unobservable.

        A stable ``lexsort`` over the columns (honeypot and protocol
        compare as strings) — the same permutation as a stable sort on the
        ``(timestamp, source, honeypot, str(protocol))`` tuple key.
        """
        if not len(self._sources):
            return EventStore()
        honeypots = np.array(self._honeypots)
        protocols = np.array([str(p) for p in self._protocols])
        order = np.lexsort((
            protocols,
            honeypots,
            self._sources.view(),
            self._timestamps.view(),
        ))
        return self._take(order)

    # -- persistence (the daily export of §3.3.2) -------------------------

    def to_jsonl(self) -> str:
        """Serialize all events as JSONL."""
        return "\n".join(row.to_json() for row in self.iter_rows())

    @classmethod
    def from_jsonl(cls, text: str) -> "EventStore":
        """Load a previously exported log."""
        return cls(
            AttackEvent.from_json(line)
            for line in text.splitlines()
            if line.strip()
        )
