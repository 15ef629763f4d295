"""Scan result records and the in-memory result database.

The paper stores "IP address, port, response, banner" per responding host
"in a database for further analysis" (Section 3.1.1).  :class:`ScanRecord`
is that row as a standalone value; :class:`ScanDatabase` is the store.

Storage is *columnar*: the database keeps parallel columns (NumPy-backed
:class:`~repro.core.columns.NumpyColumn` buffers for the numeric fields,
lists for the byte payloads) instead of one Python object per record.
Iteration yields lightweight slotted :class:`ScanRow` views that read and
write straight through to the columns, so the object-per-row API survives
while memory stays flat and bulk queries scan contiguous arrays.

Numeric filters in ``where``, numeric ``count_by`` keys and
``sorted_canonical`` run as boolean masks, ``np.unique`` groups and a
stable ``lexsort`` over those buffers, and hand back native Python
scalars, so serialized artifacts match a row-by-row recomputation.

The query surface the analysis stages use:

* :meth:`ScanDatabase.where` — typed column filters,
  ``db.where(protocol=ProtocolId.MQTT, misconfigured=True)``;
* :meth:`ScanDatabase.count_by` — grouped counts,
  ``db.count_by("protocol", unique="address")``;
* :meth:`ScanDatabase.iter_rows` / :meth:`ScanDatabase.column` — row views
  and raw column access for tight loops.
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
    Union,
)

import numpy as np

from repro.core.columns import (
    NumpyColumn,
    first_occurrence_counts,
    make_numeric_column,
    make_object_column,
)
from repro.net.ipv4 import int_to_ip
from repro.protocols.base import ProtocolId, TransportKind

__all__ = ["ScanRecord", "ScanRow", "ScanDatabase"]

#: Fields every record-like object (ScanRecord, ScanRow, duck-typed rows)
#: carries, in canonical column order.
_FIELDS = (
    "address",
    "port",
    "protocol",
    "transport",
    "banner",
    "response",
    "timestamp",
    "source",
)


def _record_json(record: Any) -> str:
    """One JSONL row (bytes hex-encoded) for any record-like object."""
    return json.dumps(
        {
            "ip": int_to_ip(record.address),
            "port": record.port,
            "protocol": str(record.protocol),
            "transport": record.transport.value,
            "banner": record.banner.hex(),
            "response": record.response.hex(),
            "timestamp": record.timestamp,
            "source": record.source,
        }
    )


@dataclass
class ScanRecord:
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
        return _record_json(self)


class ScanRow:
    """A slotted view of one database row.

    Reads come straight from the columns; attribute writes go straight
    back, so legacy code mutating ``record.source`` keeps working against
    the columnar store.  Rows compare equal to any record-like object with
    the same field values (including :class:`ScanRecord`).
    """

    __slots__ = ("_db", "_i")

    def __init__(self, db: "ScanDatabase", index: int) -> None:
        object.__setattr__(self, "_db", db)
        object.__setattr__(self, "_i", index)

    # -- column-backed attributes ---------------------------------------

    @property
    def address(self) -> int:
        return self._db._addresses[self._i]

    @address.setter
    def address(self, value: int) -> None:
        self._db._addresses[self._i] = value

    @property
    def port(self) -> int:
        return self._db._ports[self._i]

    @port.setter
    def port(self, value: int) -> None:
        self._db._ports[self._i] = value

    @property
    def protocol(self) -> ProtocolId:
        return self._db._protocols[self._i]

    @protocol.setter
    def protocol(self, value: ProtocolId) -> None:
        self._db._protocols[self._i] = value

    @property
    def transport(self) -> TransportKind:
        return self._db._transports[self._i]

    @transport.setter
    def transport(self, value: TransportKind) -> None:
        self._db._transports[self._i] = value

    @property
    def banner(self) -> bytes:
        return self._db._banners[self._i]

    @banner.setter
    def banner(self, value: bytes) -> None:
        self._db._banners[self._i] = value

    @property
    def response(self) -> bytes:
        return self._db._responses[self._i]

    @response.setter
    def response(self, value: bytes) -> None:
        self._db._responses[self._i] = value

    @property
    def timestamp(self) -> float:
        return self._db._timestamps[self._i]

    @timestamp.setter
    def timestamp(self, value: float) -> None:
        self._db._timestamps[self._i] = value

    @property
    def source(self) -> str:
        return self._db._sources[self._i]

    @source.setter
    def source(self, value: str) -> None:
        self._db._sources[self._i] = value

    # -- derived views (shared with ScanRecord) -------------------------

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
        return _record_json(self)

    def to_record(self) -> ScanRecord:
        """Materialize this row as a standalone :class:`ScanRecord`."""
        return ScanRecord(**{name: getattr(self, name) for name in _FIELDS})

    def __eq__(self, other: Any) -> bool:
        try:
            return all(
                getattr(self, name) == getattr(other, name) for name in _FIELDS
            )
        except AttributeError:
            return NotImplemented

    def __repr__(self) -> str:
        return (
            f"ScanRow(address={self.address_text!r}, port={self.port}, "
            f"protocol={self.protocol}, source={self.source!r})"
        )


#: Scalar-or-collection filter value accepted by :meth:`ScanDatabase.where`.
_FilterValue = Union[Any, Iterable[Any]]


def _as_membership(value: _FilterValue) -> Callable[[Any], bool]:
    """Normalize a scalar or collection filter to a membership predicate."""
    if isinstance(value, (set, frozenset, list, tuple, range)):
        allowed = set(value)
        return lambda item: item in allowed
    return lambda item: item == value


class ScanDatabase:
    """Queryable columnar store of scan records.

    Internally one compact column per field; externally both the legacy
    record-at-a-time API (``add`` / iteration / ``filter``) and the typed
    query API (``where`` / ``count_by`` / ``iter_rows``).
    """

    def __init__(
        self,
        records: Optional[Iterable[Any]] = None,
    ) -> None:
        #: Batched ingestions performed (one per :meth:`append_batch` call);
        #: surfaced through ``StudyMetrics`` so ``--metrics-json`` shows
        #: whether the vectorized merge path ran.
        self.batch_appends = 0
        self._addresses = make_numeric_column("u64")
        self._ports = make_numeric_column("u32")
        self._protocols: List[ProtocolId] = make_object_column()
        self._transports: List[TransportKind] = make_object_column()
        self._banners: List[bytes] = make_object_column()
        self._responses: List[bytes] = make_object_column()
        self._timestamps = make_numeric_column("f64")
        self._sources: List[str] = make_object_column()
        #: Batch-emission observers (see :meth:`subscribe`).
        self._observers: List[Callable[[List[ScanRow]], None]] = []
        for record in records or []:
            self.add(record)

    # -- ingestion -------------------------------------------------------

    def subscribe(
        self, callback: Callable[[List["ScanRow"]], None]
    ) -> Callable[[List["ScanRow"]], None]:
        """Register a batch-emission observer.

        ``callback`` receives the row views of every chunk ingested
        through :meth:`append_batch` — the streaming layer's live tap
        (:meth:`~repro.stream.bus.EventBus.tap`).  The per-record hot
        paths (``add``/``append_row``) never notify, so the scanner inner
        loop stays observer-free.  Returns the callback for symmetric
        :meth:`unsubscribe`.
        """
        self._observers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable) -> None:
        """Remove a previously subscribed observer."""
        self._observers.remove(callback)

    def _notify(self, start: int, count: int) -> None:
        if not self._observers or not count:
            return
        rows = [ScanRow(self, index) for index in range(start, start + count)]
        for callback in self._observers:
            callback(rows)

    def append_row(
        self,
        address: int,
        port: int,
        protocol: ProtocolId,
        transport: TransportKind,
        banner: bytes,
        response: bytes,
        timestamp: float,
        source: str,
    ) -> None:
        """Append one row straight into the columns (the scanner hot path —
        no intermediate record object)."""
        self._addresses.append(address)
        self._ports.append(port)
        self._protocols.append(protocol)
        self._transports.append(transport)
        self._banners.append(banner)
        self._responses.append(response)
        self._timestamps.append(timestamp)
        self._sources.append(source)

    def add(self, record: Any) -> None:
        """Append one record-like object (anything with the eight fields)."""
        self.append_row(
            record.address,
            record.port,
            record.protocol,
            record.transport,
            record.banner,
            record.response,
            record.timestamp,
            record.source,
        )

    def extend(self, records: Iterable[Any]) -> None:
        """Append many records."""
        for record in records:
            self.add(record)

    def append_batch(self, rows: Iterable[tuple]) -> int:
        """Append many ``(address, port, protocol, transport, banner,
        response, timestamp, source)`` tuples in one columnar pass.

        The sharded campaign merge feeds its sorted row tuples through
        here: one ``extend`` per column (a single buffer copy for the
        numeric columns) instead of one ``append_row`` per row.  Returns
        the row count.
        """
        if not isinstance(rows, list):
            rows = list(rows)
        start = len(self._addresses)
        if rows:
            columns = tuple(zip(*rows))
            self._addresses.extend(columns[0])
            self._ports.extend(columns[1])
            self._protocols.extend(columns[2])
            self._transports.extend(columns[3])
            self._banners.extend(columns[4])
            self._responses.extend(columns[5])
            self._timestamps.extend(columns[6])
            self._sources.extend(columns[7])
        self.batch_appends += 1
        self._notify(start, len(rows))
        return len(rows)

    # -- row access ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._addresses)

    def row(self, index: int) -> ScanRow:
        """The view of one row by position."""
        if not 0 <= index < len(self._addresses):
            raise IndexError(f"row index {index} out of range")
        return ScanRow(self, index)

    def iter_rows(self) -> Iterator[ScanRow]:
        """Iterate lightweight row views in insertion order."""
        for index in range(len(self._addresses)):
            yield ScanRow(self, index)

    def __iter__(self) -> Iterator[ScanRow]:
        return self.iter_rows()

    def column(self, name: str) -> Any:
        """Direct (read-only by convention) access to one column sequence.

        ``name`` is a field name: ``"address"``, ``"port"``, ``"protocol"``,
        ``"transport"``, ``"banner"``, ``"response"``, ``"timestamp"`` or
        ``"source"``.  Numeric columns come back as
        :class:`~repro.core.columns.NumpyColumn` objects whose ``view()``
        is the live ``ndarray``; object columns as lists.
        """
        try:
            return getattr(self, f"_{name}es" if name == "address" else
                           f"_{name}s")
        except AttributeError:
            raise KeyError(f"no such column: {name!r}") from None

    # -- typed query API -------------------------------------------------

    def where(
        self,
        *,
        protocol: Optional[_FilterValue] = None,
        port: Optional[_FilterValue] = None,
        address: Optional[_FilterValue] = None,
        transport: Optional[_FilterValue] = None,
        source: Optional[_FilterValue] = None,
        misconfigured: Optional[bool] = None,
        predicate: Optional[Callable[[ScanRow], bool]] = None,
    ) -> "ScanDatabase":
        """New database with the rows matching every given filter.

        Column filters accept a scalar or a collection (membership test).
        ``misconfigured`` filters on the observable-behaviour classifier
        (``True`` keeps flagged rows, ``False`` keeps healthy ones);
        ``predicate`` is an escape hatch receiving each :class:`ScanRow`.

        The numeric filters (``port``, ``address``) collapse to one
        boolean mask over the columns before any row view is built; the
        surviving positions then run the object filters row-wise, in
        insertion order.
        """
        positions: Iterable[int] = range(len(self._addresses))
        if port is not None or address is not None:
            mask = np.ones(len(self._addresses), dtype=bool)
            for column, value in (
                (self._ports, port), (self._addresses, address)
            ):
                if value is None:
                    continue
                view = column.view()
                if isinstance(value, (set, frozenset, list, tuple, range)):
                    mask &= np.isin(view, list(value))
                else:
                    mask &= view == value
            positions = np.nonzero(mask)[0].tolist()
            port = address = None  # already applied vectorized
        tests: List[Callable[[ScanRow], bool]] = []
        for name, value in (
            ("protocol", protocol),
            ("port", port),
            ("address", address),
            ("transport", transport),
            ("source", source),
        ):
            if value is not None:
                member = _as_membership(value)
                tests.append(
                    lambda row, n=name, m=member: m(getattr(row, n))
                )
        if misconfigured is not None:
            # Imported lazily: analysis.misconfig imports this module.
            from repro.analysis.misconfig import classify_record
            from repro.core.taxonomy import Misconfig

            tests.append(
                lambda row: (classify_record(row) != Misconfig.NONE)
                == misconfigured
            )
        if predicate is not None:
            tests.append(predicate)
        selected = ScanDatabase()
        for index in positions:
            row = ScanRow(self, index)
            if all(test(row) for test in tests):
                selected.add(row)
        return selected

    def count_by(
        self, column: str, *, unique: Optional[str] = None
    ) -> Dict[Any, int]:
        """Row (or distinct-value) counts grouped by one column.

        ``db.count_by("protocol")`` counts rows per protocol;
        ``db.count_by("protocol", unique="address")`` counts *distinct
        addresses* per protocol — Table 4's unit.

        Numeric key columns group via ``np.unique`` (reordered to first
        occurrence, the dict-insertion order of a counting loop); object
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

    # -- legacy query surface (kept verbatim for call-site stability) ----

    def by_protocol(self, protocol: ProtocolId) -> List[ScanRow]:
        """All rows for one protocol."""
        return [
            ScanRow(self, index)
            for index, value in enumerate(self._protocols)
            if value == protocol
        ]

    def unique_hosts(self, protocol: Optional[ProtocolId] = None) -> Set[int]:
        """Distinct responding addresses (optionally per protocol)."""
        if protocol is None:
            return set(np.unique(self._addresses.view()).tolist())
        return {
            self._addresses[index]
            for index, value in enumerate(self._protocols)
            if value == protocol
        }

    def counts_by_protocol(self) -> Dict[ProtocolId, int]:
        """Unique responding hosts per protocol — Table 4's unit."""
        return self.count_by("protocol", unique="address")

    def records_for(self, address: int) -> List[ScanRow]:
        """All rows from one address."""
        return [
            ScanRow(self, index)
            for index, value in enumerate(self._addresses)
            if value == address
        ]

    def filter(self, predicate: Callable[[ScanRow], bool]) -> "ScanDatabase":
        """New database with rows satisfying ``predicate``."""
        return self.where(predicate=predicate)

    def set_source(self, source: str) -> None:
        """Relabel every row's provenance in one pass (vantage/dataset
        attribution)."""
        self._sources = [source] * len(self._sources)

    def _take(self, order: np.ndarray) -> "ScanDatabase":
        """New database with rows re-ordered by ``order`` positions
        (NumPy fancy-indexing on numeric columns, list picks on objects)."""
        result = ScanDatabase()
        result._addresses = self._addresses.take(order)
        result._ports = self._ports.take(order)
        result._timestamps = self._timestamps.take(order)
        picks = order.tolist()
        result._protocols = [self._protocols[i] for i in picks]
        result._transports = [self._transports[i] for i in picks]
        result._banners = [self._banners[i] for i in picks]
        result._responses = [self._responses[i] for i in picks]
        result._sources = [self._sources[i] for i in picks]
        return result

    def sorted_canonical(self) -> "ScanDatabase":
        """New database in canonical ``(address, port, protocol)`` order —
        the order sharded campaigns merge into, making shard count (and
        probe order generally) unobservable.

        A stable ``lexsort`` over the columns (protocols compare as their
        string values, exactly how the ``str``-based
        :class:`~repro.protocols.base.ProtocolId` enum compares) — the
        same permutation as a stable sort on the tuple key.
        """
        if not len(self._addresses):
            return ScanDatabase()
        protocols = np.array([str(p) for p in self._protocols])
        order = np.lexsort(
            (protocols, self._ports.view(), self._addresses.view())
        )
        return self._take(order)

    def merge(self, other: "ScanDatabase") -> "ScanDatabase":
        """Union of two databases, deduplicated on (address, port, protocol).

        This is the paper's dataset-correlation step: ZMap results merged
        with Project Sonar / Shodan rows.  The first occurrence wins, so
        our own scan's richer banners are preferred over dataset rows.
        """
        seen = set()
        merged = ScanDatabase()
        for db in (self, other):
            for row in db.iter_rows():
                key = (row.address, row.port, row.protocol)
                if key not in seen:
                    seen.add(key)
                    merged.add(row)
        return merged

    def to_jsonl(self) -> str:
        """Serialize all rows as JSONL."""
        return "\n".join(row.to_json() for row in self.iter_rows())
