"""The streamed plane serializations.

* the FlowTuple slice encoder behind
  :meth:`~repro.telescope.flowtuple.FlowTupleWriter.lines_for_day` equals
  :func:`~repro.telescope.flowtuple.encode_flowtuple` row by row, and
  both equal the scalar ``str``-per-field oracle, across slice
  boundaries, edge values and hand-filled writers;
* an address outside the IPv4 range raises on both paths;
* :func:`~repro.core.columns.joined_pieces` concatenates to the joined
  text, and the streamed :func:`~repro.core.chaos.artifact_digests`
  equal the materializing oracle;
* streaming is bounded: digesting or draining a synthetic writer peaks
  (``tracemalloc``) far below the size of its joined text.
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chaos import artifact_digests
from repro.core.columns import _ROW_SLICE, _TEXT_SLICE, joined_pieces
from repro.honeypots.events import EventStore
from repro.net.errors import AddressError
from repro.net.packet import TransportProtocol
from repro.scanner.records import ScanDatabase
from repro.telescope.flowtuple import (
    FlowTupleRecord,
    FlowTupleWriter,
    encode_flowtuple,
)
from tests.oracles.materialized_digests import (
    materialized_digests,
    scalar_encode,
)

_MAX_ADDRESS = 2**32 - 1

_SIZES = [0, 1, _TEXT_SLICE - 1, _TEXT_SLICE, _TEXT_SLICE + 1,
          _ROW_SLICE - 1, _ROW_SLICE, _ROW_SLICE + 1, 3 * _ROW_SLICE + 5]

_addresses = st.one_of(
    st.sampled_from([0, 1, _MAX_ADDRESS - 1, _MAX_ADDRESS]),
    st.integers(min_value=0, max_value=_MAX_ADDRESS),
)

_records = st.builds(
    FlowTupleRecord,
    time=st.integers(min_value=0, max_value=86_399),
    src_ip=_addresses,
    dst_ip=_addresses,
    src_port=st.integers(min_value=0, max_value=65_535),
    dst_port=st.integers(min_value=0, max_value=65_535),
    protocol=st.sampled_from(list(TransportProtocol)),
    ttl=st.integers(min_value=0, max_value=255),
    tcp_flags=st.integers(min_value=0, max_value=255),
    ip_len=st.integers(min_value=0, max_value=65_535),
    packet_count=st.one_of(
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=2**31, max_value=2**62),
    ),
    is_spoofed=st.booleans(),
    is_masscan=st.booleans(),
    country=st.one_of(st.sampled_from(["", "US", "DK", "??", "Å-ø"]),
                      st.text(max_size=6)),
    asn=st.integers(min_value=0, max_value=2**32 - 1),
)


def _rows(base, size, interleaved):
    """``size`` rows cycling ``base``, spread over three days: day-major,
    or with the days interleaved row by row."""
    per_day = size // 3 + 1
    return [
        base[i % len(base)]._replace(
            time=((i * 5) % 3 if interleaved else i // per_day) * 86_400
            + base[i % len(base)].time
        )
        for i in range(size)
    ]


def _writer(rows, hand_filled):
    if hand_filled:
        writer = FlowTupleWriter()
        for row in rows:
            writer.add(row)
        return writer
    return FlowTupleWriter.from_columns({
        name: [getattr(row, name) for row in rows]
        for name in FlowTupleRecord._fields
    })


class TestSliceEncoder:
    @given(
        base=st.lists(_records, min_size=1, max_size=8),
        size=st.sampled_from(_SIZES),
        interleaved=st.booleans(),
        hand_filled=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_lines_for_day_equals_per_record_encoding(
        self, base, size, interleaved, hand_filled
    ):
        rows = _rows(base, size, interleaved)
        writer = _writer(rows, hand_filled)
        assert writer.days() == sorted({row.day for row in rows})
        for day in writer.days():
            expected = [encode_flowtuple(row) for row in rows
                        if row.day == day]
            assert list(writer.lines_for_day(day)) == expected
        for record in base:
            assert encode_flowtuple(record) == scalar_encode(record)

    def test_percent_d_prints_what_str_of_int_prints(self):
        for value in (True, False, TransportProtocol.TCP, 0, 2**62):
            assert "%d" % value == str(int(value))

    @pytest.mark.parametrize("field", ["src_ip", "dst_ip"])
    @pytest.mark.parametrize("address", [-1, _MAX_ADDRESS + 1])
    @pytest.mark.parametrize("position", [0, _TEXT_SLICE + 3])
    def test_out_of_range_address_raises_on_both_paths(
        self, field, address, position
    ):
        good = FlowTupleRecord(time=5, src_ip=1, dst_ip=2, src_port=3,
                               dst_port=4, protocol=TransportProtocol.TCP)
        bad = good._replace(**{field: address})
        with pytest.raises(AddressError, match="out of range"):
            encode_flowtuple(bad)
        rows = [good] * position + [bad] + [good] * 2
        for hand_filled in (True, False):
            writer = _writer(rows, hand_filled)
            with pytest.raises(AddressError, match=str(address)):
                list(writer.lines_for_day(0))


class TestJoinedPieces:
    @pytest.mark.parametrize("lines", [
        [], [""], ["", ""], ["a"], ["a", "b", ""],
        ["x"] * _TEXT_SLICE, ["x"] * (_TEXT_SLICE - 1) + [""],
        ["x"] * _TEXT_SLICE + [""], ["y", ""] * (2 * _TEXT_SLICE + 1),
    ])
    def test_pieces_concatenate_to_the_joined_text(self, lines):
        pieces = list(joined_pieces(iter(lines)))
        assert "".join(pieces) == "\n".join(lines)
        assert all(piece.count("\n") < _TEXT_SLICE for piece in pieces)


class TestStreamedDigests:
    def test_streamed_digests_equal_the_materializing_oracle(
        self, quick_study
    ):
        assert artifact_digests(quick_study) == (
            materialized_digests(quick_study)
        )

    def test_empty_planes_hash_the_empty_text(self):
        empty = SimpleNamespace(
            merged_db=ScanDatabase(), schedule=SimpleNamespace(log=EventStore()),
            telescope=SimpleNamespace(writer=FlowTupleWriter()),
        )
        assert artifact_digests(empty) == materialized_digests(empty)
        assert set(artifact_digests(empty).values()) == {
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        }


def _synthetic_writer(rows=50_000, days=10):
    """A telescope-like day-major writer built from whole columns."""
    rng = np.random.default_rng(7)
    return FlowTupleWriter.from_columns(dict(
        time=np.sort(rng.integers(0, days * 86_400, rows)),
        src_ip=rng.integers(0, 2**32, rows),
        dst_ip=rng.integers(738_197_504, 754_974_720, rows),
        src_port=rng.integers(1024, 65_536, rows),
        dst_port=np.full(rows, 23),
        protocol=[TransportProtocol.TCP] * rows,
        ttl=rng.integers(30, 128, rows),
        tcp_flags=np.full(rows, 0x02),
        ip_len=np.full(rows, 44),
        packet_count=rng.integers(1, 20, rows),
        is_spoofed=rng.random(rows) < 0.1,
        is_masscan=rng.random(rows) < 0.3,
        country=["US"] * rows,
        asn=rng.integers(1, 70_000, rows),
    ))


def _traced_peak(work):
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_digest_and_drain_peak_far_below_the_joined_text(self):
        writer = _synthetic_writer()
        days = writer.days()  # builds the store's day index
        text_bytes = len("\n".join(
            line for day in days for line in writer.lines_for_day(day)
        ).encode("utf-8"))
        planes = SimpleNamespace(
            merged_db=ScanDatabase(), schedule=SimpleNamespace(log=EventStore()),
            telescope=SimpleNamespace(writer=writer),
        )

        def drain():
            for day in days:
                for _ in writer.lines_for_day(day):
                    pass

        assert _traced_peak(lambda: artifact_digests(planes)) < text_bytes / 4
        assert _traced_peak(drain) < text_bytes / 4
