"""FlowTuple records — the CAIDA STARDUST schema.

"The FlowTuple data is captured hourly and consists of elementary
information about the suspicious traffic ... source and destination IP
address, ports, timestamp, protocol, TTL, TCP flags, IP packet length,
packet count, country code, and ASN ... additional metadata like is_spoofed
and is_masscan" (Section 3.4).  :class:`FlowTupleRecord` carries exactly
those fields; the codec serialises to the CSV-ish line format the analysis
tooling reads and writes, so the telescope pipeline round-trips through the
same representation the real study parsed.  One ``%``-format string
(:data:`_LINE`) defines the line; :func:`encode_flowtuple` applies it to
one record and :meth:`FlowTupleWriter.lines_for_day` to bounded slices of
the columns, so a day's file streams without unboxing whole rows.

The telescope is the repository's record-volume hot spot (hundreds of
thousands of flows per capture).  :class:`FlowTupleWriter` is a
:class:`~repro.core.columns.ColumnTable` like the scan and attack plane
stores: each emission task returns a small writer built from whole
columns, the capture appends them day-major, and
:class:`FlowTupleRecord` tuples materialize only when a consumer
iterates.
"""

from __future__ import annotations

from typing import Any, Iterator, List, NamedTuple

import numpy as np

from repro.core.columns import _TEXT_SLICE, ColumnTable, NumpyColumn
from repro.net.errors import ProtocolError
from repro.net.ipv4 import int_to_ip, ip_to_int, octets
from repro.net.packet import TransportProtocol

__all__ = [
    "FlowTupleRecord",
    "encode_flowtuple",
    "decode_flowtuple",
    "FlowTupleWriter",
]

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


#: One FlowTuple line: the fields in order, each address as four octets.
#: ``%d`` prints a ``bool``, an ``IntEnum`` member and an ``int`` as the
#: digits ``str(int(value))`` would.
_LINE = "%d,%d.%d.%d.%d,%d.%d.%d.%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d"


def _octet_columns(addresses: Any) -> list:
    """:func:`~repro.net.ipv4.octets` over an address array: four lists of
    octets.  The first address outside the IPv4 range goes through
    ``octets`` itself, which raises its :class:`AddressError`."""
    outside = (addresses < 0) | (addresses > 0xFFFFFFFF)
    if outside.any():
        octets(addresses[outside][0].item())
    return [((addresses >> shift) & 0xFF).tolist() for shift in (24, 16, 8, 0)]


def encode_flowtuple(record: FlowTupleRecord) -> str:
    """One CSV line in field order."""
    return _LINE % (
        record.time, *octets(record.src_ip), *octets(record.dst_ip),
        *record[3:],
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


class FlowTupleWriter(ColumnTable):
    """The telescope plane's flow store, with the per-day file layout (the
    real telescope stores 1,440 per-minute files a day; we aggregate to
    days).

    A :class:`~repro.core.columns.ColumnTable` of :class:`FlowTupleRecord`
    rows, like the scan and attack stores.  The high-volume small fields
    use the compact column kinds.  :meth:`days` and :meth:`lines_for_day`
    read a per-row day index over the ``time`` column, rebuilt when the
    table has grown since it was built, so every row is filed under its
    own :attr:`FlowTupleRecord.day` whatever order it was added in.
    """

    ROW = FlowTupleRecord
    NUMERIC = {
        "time": "i64", "src_ip": "u64", "dst_ip": "u64",
        "src_port": "i32", "dst_port": "i32", "ttl": "i32",
        "tcp_flags": "i32", "ip_len": "i32", "packet_count": "u64",
        "is_spoofed": "bool", "is_masscan": "bool", "asn": "u32",
    }

    # Each row's day, valid while the table still has the length it was
    # built at (``_indexed_at``).
    _indexed_at = -1
    _row_days: Any = None

    @staticmethod
    def canonical_key(row: tuple) -> tuple:
        """Canonical ``(time, src_ip, dst_ip, src_port, dst_port)`` order."""
        return row[:5]

    def extend_day(self, day: int, part: Any) -> int:
        """Append one (unit, ``day``) task's rows — a table or row tuples —
        as a batch (:meth:`append_batch`).  The rows are filed under their
        own day; the capture merges its tasks day-major, so insertion
        order is day order."""
        return self.append_batch(part)

    def _days_of_rows(self) -> Any:
        """Each row's capture day (``time // 86400``) as ``int32``."""
        if self._indexed_at != len(self):
            self._row_days = np.floor_divide(
                self._columns["time"].view(), 86_400,
                out=np.empty(len(self), dtype=np.int32),
            )
            self._indexed_at = len(self)
        return self._row_days

    def days(self) -> List[int]:
        """Days with data, ascending."""
        return np.unique(self._days_of_rows()).tolist()

    def lines_for_day(self, day: int) -> Iterator[str]:
        """Encoded lines of one day's file, in insertion order.

        The day's positions are encoded :data:`_TEXT_SLICE` at a time,
        straight from the columns, so draining a day never holds more
        than one slice of it as Python objects.
        """
        positions = np.flatnonzero(self._days_of_rows() == day)
        for start in range(0, len(positions), _TEXT_SLICE):
            yield from self._encode(positions[start:start + _TEXT_SLICE])

    def _encode(self, positions: Any) -> Iterator[str]:
        """:data:`_LINE` over the rows at ``positions``."""
        rows = positions.tolist()
        fields: list = []
        for name, column in self._columns.items():
            if not isinstance(column, NumpyColumn):
                fields.append(map(column.__getitem__, rows))
            elif name in ("src_ip", "dst_ip"):
                fields.extend(_octet_columns(column.view()[positions]))
            else:
                fields.append(column.view()[positions].tolist())
        return map(_LINE.__mod__, zip(*fields))
