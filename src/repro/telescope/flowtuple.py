"""FlowTuple records — the CAIDA STARDUST schema.

"The FlowTuple data is captured hourly and consists of elementary
information about the suspicious traffic ... source and destination IP
address, ports, timestamp, protocol, TTL, TCP flags, IP packet length,
packet count, country code, and ASN ... additional metadata like is_spoofed
and is_masscan" (Section 3.4).  :class:`FlowTupleRecord` carries exactly
those fields; the codec serialises to the CSV-ish line format the analysis
tooling reads and writes, so the telescope pipeline round-trips through the
same representation the real study parsed.

The telescope is the repository's record-volume hot spot (hundreds of
thousands of flows per capture), so the store is chunked:
:class:`FlowTupleWriter` files either plain record lists (the row-wise
paths) or :class:`FlowBlock` columnar batches (the vectorized emitter)
under each capture day, and materializes :class:`FlowTupleRecord` tuples
only when a consumer actually iterates.  The writer speaks the same
:class:`~repro.core.columns.ColumnStore` protocol as the scan and attack
plane stores.
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
)

import numpy as np

from repro.net.errors import ProtocolError
from repro.net.ipv4 import int_to_ip, ip_to_int
from repro.net.packet import TransportProtocol

__all__ = [
    "FlowTupleRecord",
    "FlowBlock",
    "encode_flowtuple",
    "decode_flowtuple",
    "FlowTupleWriter",
]

#: Collection types accepted as ``where`` membership filters.
_COLLECTIONS = (set, frozenset, list, tuple)

_FIELDS = [
    "time", "src_ip", "dst_ip", "src_port", "dst_port", "protocol", "ttl",
    "tcp_flags", "ip_len", "packet_cnt", "is_spoofed", "is_masscan",
    "country", "asn",
]


class FlowTupleRecord(NamedTuple):
    """One aggregated flow observed at the telescope.

    A ``NamedTuple`` rather than a dataclass: the telescope constructs
    hundreds of thousands of these per capture, and tuple construction is
    several times cheaper than dataclass ``__init__`` while keeping the
    same named-field API.  Records are immutable (nothing ever rewrote one).
    """

    time: int              # epoch-ish seconds of the aggregation interval
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: TransportProtocol
    ttl: int = 64
    tcp_flags: int = 0x02  # SYN: scan probes dominate darknet traffic
    ip_len: int = 44
    packet_count: int = 1
    is_spoofed: bool = False
    is_masscan: bool = False
    country: str = ""
    asn: int = 0

    @property
    def src_text(self) -> str:
        """Dotted-quad source."""
        return int_to_ip(self.src_ip)

    @property
    def day(self) -> int:
        """0-based day of the record within the capture month."""
        return self.time // 86_400


def encode_flowtuple(record: FlowTupleRecord) -> str:
    """One CSV line in field order."""
    return ",".join(
        str(value)
        for value in (
            record.time,
            record.src_text,
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


def decode_flowtuple(line: str) -> FlowTupleRecord:
    """Parse one CSV line back into a record."""
    parts = line.strip().split(",")
    if len(parts) != len(_FIELDS):
        raise ProtocolError(f"flowtuple line has {len(parts)} fields")
    return FlowTupleRecord(
        time=int(parts[0]),
        src_ip=ip_to_int(parts[1]),
        dst_ip=ip_to_int(parts[2]),
        src_port=int(parts[3]),
        dst_port=int(parts[4]),
        protocol=TransportProtocol(int(parts[5])),
        ttl=int(parts[6]),
        tcp_flags=int(parts[7]),
        ip_len=int(parts[8]),
        packet_count=int(parts[9]),
        is_spoofed=bool(int(parts[10])),
        is_masscan=bool(int(parts[11])),
        country=parts[12],
        asn=int(parts[13]),
    )


class FlowBlock:
    """One emission task's same-day flows held as columns.

    The vectorized telescope emitter draws whole per-day arrays and files
    them here without ever constructing a :class:`FlowTupleRecord` per
    flow; tuples materialize lazily in :meth:`records`.  A field may be a
    per-flow array/list or a single scalar broadcast across the block
    (``dst_port``, ``protocol`` and friends are constant within one
    (protocol, day) task).  Array fields unbox through ``ndarray.tolist``
    into native Python scalars, so encoded CSV lines are byte-identical to
    the row-wise path's.

    ``__slots__``-only and therefore picklable by the default protocol —
    blocks pass through the task journal exactly like record lists.
    """

    __slots__ = (
        "length", "time", "src_ip", "dst_ip", "src_port", "dst_port",
        "protocol", "ttl", "tcp_flags", "ip_len", "packet_count",
        "is_spoofed", "is_masscan", "country", "asn",
    )

    def __init__(
        self,
        length: int,
        *,
        time: Any,
        src_ip: Any,
        dst_ip: Any,
        src_port: Any,
        dst_port: Any,
        protocol: Any,
        ttl: Any,
        tcp_flags: Any,
        ip_len: Any,
        packet_count: Any,
        is_spoofed: Any,
        is_masscan: Any,
        country: Any,
        asn: Any,
    ) -> None:
        self.length = length
        self.time = time
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.protocol = protocol
        self.ttl = ttl
        self.tcp_flags = tcp_flags
        self.ip_len = ip_len
        self.packet_count = packet_count
        self.is_spoofed = is_spoofed
        self.is_masscan = is_masscan
        self.country = country
        self.asn = asn

    def __len__(self) -> int:
        return self.length

    def _sequence(self, value: Any) -> Iterable[Any]:
        """One column as an iterable of ``length`` native Python values."""
        if hasattr(value, "tolist"):
            return value.tolist()
        if isinstance(value, list):
            return value
        return repeat(value, self.length)

    def records(self) -> Iterator[FlowTupleRecord]:
        """Materialize the block's tuples, in emission order."""
        fields = (
            self.time, self.src_ip, self.dst_ip, self.src_port,
            self.dst_port, self.protocol, self.ttl, self.tcp_flags,
            self.ip_len, self.packet_count, self.is_spoofed,
            self.is_masscan, self.country, self.asn,
        )
        for row in zip(*(self._sequence(value) for value in fields)):
            yield FlowTupleRecord(*row)


#: Canonical flow order — the telescope plane's merge key.
_CANONICAL_KEY = ("time", "src_ip", "dst_ip", "src_port", "dst_port")


class FlowTupleWriter:
    """Accumulates records and renders the per-day file layout (the real
    telescope stores 1,440 per-minute files a day; we aggregate to days).

    Storage is chunked: each day holds a list of chunks, a chunk being
    either a plain record list (row-wise emitters) or a :class:`FlowBlock`
    (the vectorized emitter) — blocks are filed whole, never exploded into
    tuples at ingest.  The writer also implements the shared
    :class:`~repro.core.columns.ColumnStore` query surface so telescope
    consumers can treat it like the other two plane stores.
    """

    def __init__(self) -> None:
        #: Columnar ingests (``extend_day`` of a block, ``append_batch``),
        #: surfaced per-plane by the study metrics.
        self.batch_appends = 0
        self._by_day: Dict[int, list] = {}
        #: Batch-emission observers (see :meth:`subscribe`).
        self._observers: List[Callable[[List[FlowTupleRecord]], None]] = []

    def subscribe(
        self, callback: Callable[[List[FlowTupleRecord]], None]
    ) -> Callable[[List[FlowTupleRecord]], None]:
        """Register a batch-emission observer.

        ``callback`` receives the record list of every chunk filed
        through :meth:`extend_day` or :meth:`append_batch` (blocks are
        materialized to records only when observers exist) — the
        streaming layer's live tap on the telescope plane.  ``add``
        never notifies.  Returns the callback for symmetric
        :meth:`unsubscribe`.
        """
        self._observers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable) -> None:
        """Remove a previously subscribed observer."""
        self._observers.remove(callback)

    def _notify(self, records: Any) -> None:
        if not self._observers:
            return
        if isinstance(records, FlowBlock):
            records = list(records.records())
        elif not isinstance(records, list):
            records = list(records)
        if not records:
            return
        for callback in self._observers:
            callback(records)

    def _tail(self, day: int) -> list:
        """The day's open row-list chunk (opening one if the last chunk is
        a block or the day is new)."""
        chunks = self._by_day.setdefault(day, [])
        if not chunks or not isinstance(chunks[-1], list):
            chunks.append([])
        return chunks[-1]

    def add(self, record: FlowTupleRecord) -> None:
        """File one record under its capture day."""
        self._tail(record.day).append(record)

    def extend_day(self, day: int, records: Any) -> None:
        """File a batch of same-day records, preserving their order.

        The sharded telescope merges per-(protocol, day) task outputs with
        this — one bucket lookup per task instead of per record.  Accepts
        either a record list or a :class:`FlowBlock` (filed whole)."""
        if isinstance(records, FlowBlock):
            if len(records):
                self._by_day.setdefault(day, []).append(records)
            self.batch_appends += 1
            self._notify(records)
            return
        if records:
            if not isinstance(records, list):
                records = list(records)
            self._tail(day).extend(records)
            self._notify(records)

    def days(self) -> List[int]:
        """Days with data, ascending."""
        return sorted(self._by_day)

    def _day_records(self, day: int) -> Iterator[FlowTupleRecord]:
        for chunk in self._by_day.get(day, ()):
            if isinstance(chunk, list):
                yield from chunk
            else:
                yield from chunk.records()

    def lines_for_day(self, day: int) -> Iterator[str]:
        """Encoded lines of one day's file."""
        return (encode_flowtuple(record) for record in self._day_records(day))

    def records(self) -> Iterator[FlowTupleRecord]:
        """All records across days."""
        for day in self.days():
            yield from self._day_records(day)

    # -- ColumnStore protocol ---------------------------------------------

    def __len__(self) -> int:
        return sum(
            len(chunk)
            for chunks in self._by_day.values()
            for chunk in chunks
        )

    def iter_rows(self) -> Iterator[FlowTupleRecord]:
        """Protocol alias of :meth:`records`."""
        return self.records()

    def append_batch(self, rows: Iterable[FlowTupleRecord]) -> int:
        """File many records (any mix of days) in one pass; returns the
        row count."""
        by_day: Dict[int, List[FlowTupleRecord]] = {}
        count = 0
        for record in rows:
            by_day.setdefault(record.day, []).append(record)
            count += 1
        for day in sorted(by_day):
            self._tail(day).extend(by_day[day])
        self.batch_appends += 1
        for day in sorted(by_day):
            self._notify(by_day[day])
        return count

    def where(self, **filters: Any) -> "FlowTupleWriter":
        """A new writer holding the records matching every filter.

        Filters name :class:`FlowTupleRecord` fields (or the derived
        ``day``); a set/list/tuple value means membership, anything else
        equality."""
        tests = []
        for name, wanted in filters.items():
            if wanted is None:
                continue
            if isinstance(wanted, _COLLECTIONS):
                wanted = set(wanted)
                tests.append(lambda record, n=name, w=wanted: getattr(record, n) in w)
            else:
                tests.append(lambda record, n=name, w=wanted: getattr(record, n) == w)
        selected = FlowTupleWriter()
        for record in self.records():
            if all(test(record) for test in tests):
                selected.add(record)
        return selected

    def count_by(
        self, column: str, *, unique: Optional[str] = None
    ) -> Dict[Any, int]:
        """Counts (or distinct-``unique`` counts) grouped by ``column``,
        keyed in first-occurrence order."""
        if unique is None:
            counts: Dict[Any, int] = {}
            for record in self.records():
                key = getattr(record, column)
                counts[key] = counts.get(key, 0) + 1
            return counts
        distinct: Dict[Any, set] = {}
        for record in self.records():
            distinct.setdefault(getattr(record, column), set()).add(
                getattr(record, unique)
            )
        return {key: len(values) for key, values in distinct.items()}

    def column(self, name: str) -> list:
        """One field across all records, in day-then-emission order."""
        return [getattr(record, name) for record in self.records()]

    def sorted_canonical(self) -> "FlowTupleWriter":
        """A new writer in canonical
        ``(time, src_ip, dst_ip, src_port, dst_port)`` order.

        A stable ``lexsort`` over the key columns, extracted once — the
        same permutation as a stable ``sorted`` on the key tuple."""
        records = list(self.records())
        if records:
            keys = [
                np.fromiter(
                    (getattr(record, name) for record in records),
                    dtype=np.int64, count=len(records),
                )
                # lexsort wants the primary key LAST.
                for name in reversed(_CANONICAL_KEY)
            ]
            order = np.lexsort(keys).tolist()
            records = [records[i] for i in order]
        ordered = FlowTupleWriter()
        ordered.append_batch(records)
        return ordered
