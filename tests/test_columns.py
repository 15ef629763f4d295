"""The column layer (`repro.core.columns`) and the three plane stores on it.

Pins the contracts the vectorized stores rest on:

* **batch PRNG equivalence** — ``RandomStream.uniform_array(n)`` is
  bit-identical to ``n`` sequential draws (including the stream state
  afterwards), and ``keyed_uniform_array`` to its scalar loop — the
  hypothesis property tests;
* **plane bytes** on two seeds for all three measurement planes (scan
  database, attack event log, telescope flow store), each store's digest
  equal to ``plane_goldens.json``;
* **vector paths against plain Python** — every mask, ``np.unique`` and
  canonical-order path of the three stores agrees with a recomputation over
  ``iter_rows()`` (dict counting, ``set``, ``sorted`` by the canonical
  tuple key);
* **one table** — the three stores are
  :class:`~repro.core.columns.ColumnTable` subclasses whose bounded-slice
  ``iter_rows`` equals a whole-column walk, and the telescope writer
  files hand-added rows under their own day;
* **no backend knob** — the configs and the CLI reject ``backend``.
"""

from __future__ import annotations

import io
import json
import pickle
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.schedule import AttackScheduleConfig
from repro.cli import main
from repro.core import columns
from repro.core.columns import ColumnTable, NumpyColumn, make_numeric_column
from repro.core.config import StudyConfig
from repro.core.taxonomy import AttackType
from repro.honeypots.events import AttackEvent, EventStore
from repro.net import prng
from repro.net.prng import RandomStream, keyed_uniform, keyed_uniform_array
from repro.net.packet import TransportProtocol
from repro.protocols.base import ProtocolId, TransportKind
from repro.scanner.records import ScanDatabase, ScanRecord
from repro.scanner.zmap import ScanConfig
from repro.telescope.flowtuple import (
    FlowTupleRecord,
    FlowTupleWriter,
    encode_flowtuple,
)
from repro.telescope.telescope import TelescopeConfig
from tests.test_plane_goldens import (
    attack_month,
    flow_lines_digest,
    golden,
    scan_campaign,
    telescope_capture,
    text_digest,
)

BOTH_SEEDS = pytest.mark.parametrize("seed", [7, 1234])


# ---------------------------------------------------------------------------
# Batch PRNG equivalence (the determinism contract, property-tested)
# ---------------------------------------------------------------------------

class TestUniformArrayEquivalence:
    @given(
        n=st.integers(min_value=0, max_value=700),
        prefix=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_sequential_draws(self, n, prefix, seed):
        batched = RandomStream(seed, "prop")
        serial = RandomStream(seed, "prop")
        for _ in range(prefix):  # desynchronise from a fresh state
            assert batched.random() == serial.random()
        # A lowered threshold sends draws of 64-700 through the transplant.
        with mock.patch.object(prng, "_TRANSPLANT_MIN", 64):
            draws = batched.uniform_array(n)
        assert isinstance(draws, np.ndarray) and draws.dtype == np.float64
        assert draws.tolist() == [serial.random() for _ in range(n)]
        # The stream continues exactly as if the draws had been scalar.
        assert batched.random() == serial.random()

    @given(
        n=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        key=st.lists(
            st.one_of(st.integers(-5, 5_000_000), st.text(max_size=6),
                      st.booleans()),
            max_size=3,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_keyed_batch_equals_scalar_loop(self, n, seed, key):
        draws = keyed_uniform_array(seed, "prop", n, *key)
        assert isinstance(draws, np.ndarray) and draws.dtype == np.float64
        assert draws.tolist() == [
            keyed_uniform(seed, "prop", *key, i) for i in range(n)
        ]

    def test_batch_crosses_twister_refill_boundary(self):
        # 624-word MT19937 state refills mid-batch; the transplant must
        # survive several refills in one call.
        batched = RandomStream(7, "refill")
        serial = RandomStream(7, "refill")
        assert list(batched.uniform_array(5_000)) == [
            serial.random() for _ in range(5_000)
        ]
        assert batched.random() == serial.random()

    def test_threads_interleaving_batches_each_match_their_scalar_draws(self):
        # Each thread transplants through its own scratch twister, so
        # batches interleaved across threads never see each other's state.
        sizes = [64, 700, 5_000, 64, 1_000] * 10
        barrier = threading.Barrier(2)
        results = {}

        def draw(name):
            stream = RandomStream(7, name)
            batches = []
            for n in sizes:
                barrier.wait()
                batches.extend(stream.uniform_array(n).tolist())
            batches.append(stream.random())
            results[name] = batches

        threads = [threading.Thread(target=draw, args=(name,))
                   for name in ("left", "right")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for name in ("left", "right"):
            serial = RandomStream(7, name)
            assert results[name] == [
                serial.random() for _ in range(sum(sizes) + 1)
            ]


# ---------------------------------------------------------------------------
# The unified store protocol
# ---------------------------------------------------------------------------

def _flow(i, day=0):
    return FlowTupleRecord(
        time=day * 86_400 + (i * 37) % 86_400,
        src_ip=10_000 + (i * 7) % 53,
        dst_ip=738_197_504 + i,
        src_port=1024 + i,
        dst_port=23,
        protocol=TransportProtocol.TCP,
        country="DK",
        asn=31,
    )


class TestColumnStoreProtocol:
    def test_all_three_stores_satisfy_protocol(self):
        assert isinstance(ScanDatabase(), ColumnTable)
        assert isinstance(EventStore(), ColumnTable)
        assert isinstance(FlowTupleWriter(), ColumnTable)

    def test_plain_iterables_do_not(self):
        assert not isinstance([], ColumnTable)

    def test_writer_where_and_count_by(self):
        writer = FlowTupleWriter()
        writer.append_batch([_flow(i, day=i % 3) for i in range(30)])
        assert writer.batch_appends == 1
        assert len(writer.where(src_port=1024)) == 1
        assert len(writer.where(src_port=(1024, 1025, 9999))) == 2
        assert len(writer.where(country="DK", dst_port=23)) == 30
        assert [len(list(writer.lines_for_day(day))) for day in
                writer.days()] == [10, 10, 10]
        counts = writer.count_by("src_ip")
        assert sum(counts.values()) == 30
        assert all(type(key) is int for key in counts)
        distinct = writer.count_by("dst_port", unique="src_ip")
        assert distinct == {23: len({10_000 + (i * 7) % 53
                                     for i in range(30)})}
        with pytest.raises(KeyError, match="no such column"):
            writer.where(day=1)

    def test_writer_sorted_canonical_matches_sorted(self):
        rows = [_flow(i, day=i % 3) for i in range(64)]
        writer = FlowTupleWriter()
        writer.append_batch(rows)
        assert ([encode_flowtuple(record)
                 for record in writer.sorted_canonical().iter_rows()]
                == [encode_flowtuple(record)
                    for record in _python_sorted(rows, _FLOW_KEY)])

    def test_numpy_column_negative_indexing(self):
        column = make_numeric_column("u64", [5, 6, 7])
        assert column[-1] == 7
        column[-1] = 9
        assert list(column) == [5, 6, 9]
        with pytest.raises(IndexError):
            column[3]

    def test_empty_stores_sort_canonically(self):
        # lexsort needs at least one row; the empty guard returns an
        # empty store of the same type.
        for store in (ScanDatabase(), EventStore(), FlowTupleWriter()):
            ordered = store.sorted_canonical()
            assert type(ordered) is type(store) and len(ordered) == 0


# ---------------------------------------------------------------------------
# Plane bytes against the goldens, and the vector paths against plain
# Python recomputed over iter_rows()
# ---------------------------------------------------------------------------

#: The telescope plane's canonical order.
_FLOW_KEY = ("time", "src_ip", "dst_ip", "src_port", "dst_port")


def _python_counts(keys):
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return counts


def _python_distinct(rows, column, unique):
    groups = {}
    for row in rows:
        groups.setdefault(getattr(row, column), set()).add(
            getattr(row, unique)
        )
    return {key: len(members) for key, members in groups.items()}


def _python_sorted(rows, key):
    return sorted(rows, key=lambda row: tuple(
        str(getattr(row, name)) if name == "protocol"
        else getattr(row, name)
        for name in key
    ))


def _records_json(rows):
    return [row.to_json() for row in rows]


class TestBackendParity:
    """Each plane fixture's store equals its golden digest.

    The class keeps its historical name: the digests were taken on both
    former column backends and agreed.
    """

    @BOTH_SEEDS
    def test_scan_plane_byte_identical(self, seed):
        database = scan_campaign(seed)
        assert (text_digest(database.to_jsonl())
                == golden("fixtures", seed)["scan"])
        assert database.batch_appends >= 1

    @BOTH_SEEDS
    def test_attack_plane_byte_identical(self, seed):
        log = attack_month(seed).log
        assert (text_digest(log.to_jsonl())
                == golden("fixtures", seed)["attacks"])
        assert log.batch_appends >= 1

    @BOTH_SEEDS
    def test_telescope_plane_byte_identical(self, seed):
        writer = telescope_capture(seed).writer
        assert (flow_lines_digest(writer)
                == golden("fixtures", seed)["telescope"])
        assert writer.batch_appends >= 1

    def test_scan_query_surface_agrees(self):
        database = scan_campaign(7)
        rows = list(database.iter_rows())
        # np.unique groups, on numeric keys, in first-occurrence order.
        for column in ("port", "address"):
            counts = database.count_by(column)
            expected = _python_counts(getattr(row, column) for row in rows)
            assert counts == expected
            assert list(counts) == list(expected)
        assert database.count_by("protocol") == _python_counts(
            row.protocol for row in rows
        )
        assert (database.count_by("protocol", unique="address")
                == _python_distinct(rows, "protocol", "address"))
        assert database.unique_hosts() == {row.address for row in rows}
        # Boolean masks over the numeric columns.
        ports = sorted({row.port for row in rows})[:2]
        assert _records_json(database.where(port=set(ports))) == [
            row.to_json() for row in rows if row.port in ports
        ]
        probe = rows[len(rows) // 2]
        assert _records_json(
            database.where(address=probe.address, port=probe.port)
        ) == [
            row.to_json() for row in rows
            if row.address == probe.address and row.port == probe.port
        ]
        # Stable lexsort against sorted() on the canonical tuple key; the
        # campaign is already canonical, so sort it from reversed order.
        reversed_db = ScanDatabase(rows[::-1])
        assert _records_json(reversed_db.sorted_canonical()) == _records_json(
            _python_sorted(rows[::-1], ("address", "port", "protocol"))
        )

    def test_event_query_surface_agrees(self):
        log = attack_month(7).log
        rows = list(log.iter_rows())
        for column in ("source", "day"):
            counts = log.count_by(column)
            expected = _python_counts(getattr(row, column) for row in rows)
            assert counts == expected
            assert list(counts) == list(expected)
        assert (log.count_by("protocol", unique="source")
                == _python_distinct(rows, "protocol", "source"))
        assert log.unique_sources() == {row.source for row in rows}
        # Collection-valued source and day filters take the mask path.
        sources = sorted({row.source for row in rows})[:3]
        assert _records_json(log.where(source=set(sources), day=(0, 1))) == [
            row.to_json() for row in rows
            if row.source in sources and row.day in (0, 1)
        ]
        assert _records_json(log.where(day=2)) == [
            row.to_json() for row in rows if row.day == 2
        ]
        reversed_log = EventStore(rows[::-1])
        assert _records_json(reversed_log.sorted_canonical()) == (
            _records_json(_python_sorted(
                rows[::-1], ("timestamp", "source", "honeypot", "protocol")
            ))
        )

    def test_telescope_query_surface_agrees(self):
        writer = telescope_capture(7).writer
        records = list(writer.iter_rows())
        assert list(writer.sorted_canonical().iter_rows()) == _python_sorted(
            records, _FLOW_KEY
        )


def _scan_row(i):
    return ScanRecord(
        address=(i * 7919) % 2**32, port=i % 65_536,
        protocol=list(ProtocolId)[i % len(ProtocolId)],
        transport=TransportKind.TCP if i % 2 else TransportKind.UDP,
        banner=bytes([i % 256]), timestamp=i * 0.5,
    )


def _attack_row(i):
    return AttackEvent(
        honeypot=f"hp{i % 5}", protocol=list(ProtocolId)[i % 3],
        source=i * 31, day=i % 30, timestamp=i * 1.25,
        attack_type=list(AttackType)[i % len(AttackType)],
        request_bytes=i,
    )


def _flow_row(i):
    return FlowTupleRecord(
        time=i * 97, src_ip=10_000 + i, dst_ip=738_197_504 + i * 3,
        src_port=1024 + i % 60_000, dst_port=23 if i % 2 else 80,
        protocol=TransportProtocol.TCP, ttl=32 + i % 200,
        tcp_flags=0x12 if i % 7 == 0 else 0x02, ip_len=44,
        packet_count=i + 1, is_spoofed=i % 3 == 0, is_masscan=i % 5 == 0,
        country="DK", asn=i % 70_000,
    )


_SLICE = columns._ROW_SLICE


class TestColumnTable:
    @pytest.mark.parametrize("store", [ScanDatabase, EventStore])
    @pytest.mark.parametrize("name", ["observer", "nope"])
    def test_column_rejects_names_that_are_not_fields(self, store, name):
        with pytest.raises(KeyError, match="no such column"):
            store().column(name)

    @given(
        store=st.sampled_from([
            (ScanDatabase, _scan_row), (EventStore, _attack_row),
            (FlowTupleWriter, _flow_row),
        ]),
        rows=st.one_of(
            st.sampled_from([0, 1, _SLICE - 1, _SLICE, _SLICE + 1,
                             3 * _SLICE + 2]),
            st.integers(min_value=0, max_value=2 * _SLICE + 3),
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_sliced_iter_rows_equals_whole_column_walk(self, store, rows):
        table_type, make_row = store
        table = table_type([make_row(i) for i in range(rows)])
        reference = [
            table_type.ROW._make(values) for values in zip(*(
                column.tolist() if isinstance(column, NumpyColumn)
                else column
                for column in table._columns.values()
            ))
        ]
        walked = list(table.iter_rows())
        assert walked == reference == [make_row(i) for i in range(rows)]
        assert [tuple(map(type, row)) for row in walked] == [
            tuple(map(type, row)) for row in reference
        ]

    def test_flow_columns_unbox_to_native_scalars(self):
        writer = FlowTupleWriter([_flow_row(3)])
        row = next(iter(writer))
        assert [type(value) for value in row] == [
            int, int, int, int, int, TransportProtocol, int, int, int, int,
            bool, bool, str, int,
        ]
        assert writer.column("is_spoofed").view().dtype == np.bool_
        assert writer.column("ttl").view().dtype == np.int32

    def test_from_columns_adopts_whole_columns(self):
        flags = np.full(3, 0x02, dtype=np.int32)
        writer = FlowTupleWriter.from_columns(dict(
            time=np.array([30, 10, 20]),
            src_ip=np.array([1, 2, 3]),
            dst_ip=np.array([4, 5, 6]),
            src_port=np.array([1024, 1025, 1026]),
            dst_port=np.full(3, 23, dtype=np.int32),
            protocol=[TransportProtocol.TCP] * 3,
            ttl=np.array([60, 61, 62]),
            tcp_flags=flags,
            ip_len=np.full(3, 44, dtype=np.int32),
            packet_count=np.array([1, 2, 3]),
            is_spoofed=np.array([True, False, True]),
            is_masscan=np.array([False, True, False]),
            country=["DK", "SE", "NO"],
            asn=[7, 7, 7],
        ))
        assert len(writer) == 3
        assert writer.column("tcp_flags").view().base is flags  # no copy
        assert writer.row(0) == FlowTupleRecord(
            time=30, src_ip=1, dst_ip=4, src_port=1024, dst_port=23,
            protocol=TransportProtocol.TCP, ttl=60, tcp_flags=0x02,
            ip_len=44, packet_count=1, is_spoofed=True, is_masscan=False,
            country="DK", asn=7,
        )
        with pytest.raises(ValueError, match="fields"):
            FlowTupleWriter.from_columns({"time": [1]})
        with pytest.raises(ValueError, match="one length"):
            ScanDatabase.from_columns(dict(
                address=[1, 2], port=[1], protocol=[ProtocolId.MQTT],
                transport=[TransportKind.TCP], banner=[b""],
                response=[b""], timestamp=[0.0], source=["zmap"],
            ))

    def test_hand_filled_writer_files_rows_by_their_day(self):
        rows = [_flow(i, day=(i * 5) % 4) for i in range(40)]
        writer = FlowTupleWriter()
        for row in rows:
            writer.add(row)
        assert list(writer) == rows  # insertion order, days interleaved
        assert writer.days() == [0, 1, 2, 3]
        for day in writer.days():
            assert list(writer.lines_for_day(day)) == [
                encode_flowtuple(row) for row in rows if row.day == day
            ]
        # The day index follows growth.
        writer.extend_day(7, [_flow(0, day=7), _flow(1, day=2)])
        assert writer.days() == [0, 1, 2, 3, 7]
        assert list(writer.lines_for_day(2))[-1] == encode_flowtuple(
            _flow(1, day=2)
        )
        assert list(writer.lines_for_day(5)) == []

    def test_numpy_column_pickles_its_live_prefix(self):
        column = make_numeric_column("i64", range(17))
        assert len(column._data) == 32  # a growth buffer with slack
        exact = column.take(range(17))
        assert len(exact._data) == 17
        assert pickle.dumps(column) == pickle.dumps(exact)
        for source in (column, exact):
            restored = pickle.loads(pickle.dumps(source))
            assert list(restored) == list(range(17))
            restored.append(17)  # an exact-size column still grows
            assert restored[-1] == 17 and len(restored) == 18

    def test_empty_taken_column_can_grow(self):
        column = make_numeric_column("i32").take([])
        column.append(5)
        assert list(column) == [5]


# ---------------------------------------------------------------------------
# The removed backend knob, and the store metrics that stay
# ---------------------------------------------------------------------------

class TestBackendKnobRemoved:
    """``backend`` is no longer a config field, nor ``--backend`` a flag."""

    @pytest.mark.parametrize("request_backend", [
        pytest.param(lambda: StudyConfig(backend="numpy"),
                     id="StudyConfig"),
        pytest.param(lambda: ScanConfig(backend="numpy"), id="ScanConfig"),
        pytest.param(lambda: AttackScheduleConfig(backend="numpy"),
                     id="AttackScheduleConfig"),
        pytest.param(lambda: TelescopeConfig(backend="numpy"),
                     id="TelescopeConfig"),
        pytest.param(["run", "--quick", "--backend", "numpy"],
                     id="run --backend numpy"),
    ])
    def test_backend_is_rejected(self, request_backend):
        if callable(request_backend):
            with pytest.raises(TypeError, match="backend"):
                request_backend()
            return
        try:
            code = main(request_backend, out=io.StringIO())
        except SystemExit as exit:  # argparse rejects unknown flags
            code = exit.code
        assert code == 2


class TestStoreMetrics:
    def test_metrics_json_records_store_batches(self, tmp_path):
        path = tmp_path / "metrics.json"
        out = io.StringIO()
        assert main(
            ["scan", "--quick", "--no-cache", "--metrics-json", str(path)],
            out=out,
        ) == 0
        payload = json.loads(path.read_text())
        assert "backend" not in payload
        scan_store = next(
            store for store in payload["stores"] if store["plane"] == "scan"
        )
        assert "backend" not in scan_store
        assert scan_store["batch_appends"] >= 1
        assert scan_store["rows"] > 0
