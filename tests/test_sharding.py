"""Sharded-scan determinism: the property the scan plane is built on.

The scan pipeline may partition a sweep into K concurrent shards, but the
merged :class:`~repro.scanner.records.ScanDatabase` must be byte-identical
for every K and for the strictly-serial walk kept in
``tests/oracles/serial_scan.py``.  These tests pin that down, along with
the keyed-PRNG mechanics that make it possible and the columnar query API
the rest of the pipeline now consumes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.internet.fabric import ProbeLossModel
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.net.errors import ConfigError
from repro.net.prng import RandomStream, derive_key_seed, keyed_uniform
from repro.protocols.base import ProtocolId, TransportKind
from repro.protocols.telnet import TelnetConfig, TelnetServer
from repro.scanner.records import ScanDatabase, ScanRecord
from repro.scanner.shard import ShardPlanner, ShardTiming
from repro.scanner.zmap import (
    SCAN_START_DAY,
    InternetScanner,
    ScanConfig,
    scan_start_day,
)
from tests.oracles.row_merge import row_merge
from tests.oracles.serial_scan import serial_scan

#: Scan rows over a tiny key space (3 addresses x 2 ports x 2
#: protocols), so generated stores are dense in duplicate keys.
_scan_rows = st.lists(
    st.builds(
        ScanRecord,
        address=st.integers(1, 3),
        port=st.sampled_from((23, 1883)),
        protocol=st.sampled_from((ProtocolId.TELNET, ProtocolId.MQTT)),
        transport=st.just(TransportKind.TCP),
        banner=st.binary(max_size=3),
        response=st.binary(max_size=3),
        timestamp=st.floats(0, 1e6, allow_nan=False),
        source=st.sampled_from(("zmap", "sonar", "shodan")),
    ),
    max_size=12,
)

_LOSSY = dict(scale=16_384, honeypot_scale=512, loss_rate=0.12)


def _world(seed):
    """A fresh lossy world.  Fresh per scan run: the fabric's keyed loss
    model counts per-flow attempts for the life of the instance, so two
    campaigns against one instance legitimately see different loss."""
    return PopulationBuilder(PopulationConfig(seed=seed, **_LOSSY)).build()


def _campaign(seed, shards=1, strategy="hash"):
    scanner = InternetScanner(
        _world(seed).internet,
        ScanConfig(shards=shards, shard_strategy=strategy),
    )
    return scanner, scanner.run_campaign()


class TestShardDeterminism:
    @pytest.mark.parametrize("seed", [7, 23])
    def test_serial_and_sharded_byte_identical(self, seed):
        _, serial = _campaign(seed, shards=1)
        baseline = serial.to_jsonl()
        assert baseline  # lossy world still yields records
        for shards in (2, 7):
            _, sharded = _campaign(seed, shards=shards)
            assert sharded.to_jsonl() == baseline, f"K={shards}"

    def test_block_strategy_matches_hash(self):
        _, hashed = _campaign(7, shards=4, strategy="hash")
        _, blocked = _campaign(7, shards=4, strategy="block")
        assert blocked.to_jsonl() == hashed.to_jsonl()

    def test_reference_oracle_matches_sharded(self):
        scanner = InternetScanner(_world(7).internet, ScanConfig())
        reference = ScanDatabase()
        for protocol in scanner.config.protocols:
            reference.extend(serial_scan(scanner, protocol))
        _, sharded = _campaign(7, shards=3)
        assert reference.sorted_canonical().to_jsonl() == sharded.to_jsonl()

    def test_shard_timings_cover_every_shard(self):
        scanner, _ = _campaign(7, shards=4)
        timings = scanner.shard_timings
        assert len(timings) == 4 * len(scanner.config.protocols)
        assert all(isinstance(t, ShardTiming) for t in timings)
        assert {t.shard for t in timings} == {0, 1, 2, 3}
        assert sum(t.probes for t in timings) == scanner.probes_sent
        assert all(t.seconds >= 0.0 for t in timings)


class TestKeyedPrng:
    def test_derived_streams_are_draw_order_independent(self):
        """Draws from one child must not perturb a sibling — the property
        that frees shard workers from any scheduling coupling."""
        parent = RandomStream(7, "scanner")
        alone = [RandomStream(7, "scanner").derive("a").random()
                 for _ in range(1)]
        # Interleave: exhaust a sibling and the parent first.
        parent.derive("b").bytes(64)
        for _ in range(17):
            parent.random()
        interleaved = parent.derive("a").random()
        assert interleaved == alone[0]

    def test_derive_key_seed_is_pure(self):
        a = derive_key_seed(7, "loss", 1, 2, "syn", 0)
        b = derive_key_seed(7, "loss", 1, 2, "syn", 0)
        assert a == b
        assert a != derive_key_seed(7, "loss", 1, 2, "syn", 1)
        assert 0.0 <= keyed_uniform(7, "loss", 1, 2, "syn", 0) < 1.0

    def test_loss_model_is_flow_keyed_not_order_keyed(self):
        """The same flow sees the same loss verdicts regardless of what
        other flows were asked about in between."""
        quiet = ProbeLossModel(rate=0.5, seed=7, name="loss")
        verdicts = [quiet.lost(1, 2, 23, "syn") for _ in range(8)]
        noisy = ProbeLossModel(rate=0.5, seed=7, name="loss")
        for flow in range(100, 140):
            noisy.lost(1, flow, 23, "syn")
        assert [noisy.lost(1, 2, 23, "syn") for _ in range(8)] == verdicts

    def test_shard_assignment_is_pure_in_address(self):
        planner = ShardPlanner(5, "hash")
        addresses = list(range(1000, 1400))
        first = planner.partition(addresses)
        second = planner.partition(list(reversed(addresses)))
        assert sorted(map(sorted, first)) == sorted(map(sorted, second))
        assert sum(len(s) for s in first) == len(addresses)
        blocky = ShardPlanner(4, "block")
        for address in addresses:
            assert blocky.shard_of(address) == (address >> 24) % 4


class TestScanStartDay:
    def test_extension_protocols_default_to_day_zero(self):
        for protocol in (ProtocolId.TR069, ProtocolId.DDS, ProtocolId.OPCUA):
            assert protocol not in SCAN_START_DAY
            assert scan_start_day(protocol) == 0

    def test_table9_protocols_keep_their_day(self):
        assert scan_start_day(ProtocolId.COAP) == 0
        assert scan_start_day(ProtocolId.XMPP) == 4

    def test_extension_scan_records_timestamp_day_zero(self):
        world = PopulationBuilder(PopulationConfig(
            seed=11, scale=16_384, honeypot_scale=512, include_extended=True,
        )).build()
        scanner = InternetScanner(
            world.internet,
            ScanConfig(protocols=(ProtocolId.TR069,)),
        )
        database = scanner.run_campaign()
        assert len(database)
        assert set(database.column("timestamp")) == {0.0}


class TestScanConfigValidation:
    def test_bad_shard_count_raises_config_error(self):
        with pytest.raises(ConfigError):
            ScanConfig(shards=0)

    def test_bad_strategy_raises_config_error(self):
        with pytest.raises(ConfigError):
            ScanConfig(shard_strategy="modulo")

    def test_negative_retries_raises_config_error(self):
        with pytest.raises(ConfigError):
            ScanConfig(udp_retries=-1)

    def test_shards_do_not_change_equality_or_fingerprint(self):
        from repro.core.engine import config_fingerprint

        serial, sharded = ScanConfig(), ScanConfig(shards=8)
        assert serial == sharded
        assert config_fingerprint(serial) == config_fingerprint(sharded)

    def test_cli_rejects_bad_shards_with_exit_2(self, capsys):
        assert main(["scan", "--quick", "--shards", "0"]) == 2
        assert "configuration error" in capsys.readouterr().err


class TestColumnarDatabase:
    @pytest.fixture()
    def records(self):
        return [
            ScanRecord(address=1, port=23, protocol=ProtocolId.TELNET,
                       transport=TransportKind.TCP, banner=b"login:",
                       response=b"", timestamp=0, source="zmap"),
            ScanRecord(address=1, port=1883, protocol=ProtocolId.MQTT,
                       transport=TransportKind.TCP, banner=b"",
                       response=b"\x20\x02\x00\x00", timestamp=3,
                       source="zmap"),
            ScanRecord(address=2, port=23, protocol=ProtocolId.TELNET,
                       transport=TransportKind.TCP, banner=b"login:",
                       response=b"", timestamp=0, source="sonar"),
        ]

    @pytest.fixture()
    def database(self, records):
        db = ScanDatabase()
        for record in records:
            db.add(record)
        return db

    def test_where_by_protocol_and_source(self, database):
        assert len(database.where(protocol=ProtocolId.TELNET)) == 2
        assert len(database.where(protocol=ProtocolId.TELNET,
                                  source="sonar")) == 1
        many = database.where(protocol=(ProtocolId.TELNET, ProtocolId.MQTT))
        assert len(many) == 3

    def test_count_by(self, database):
        assert database.count_by("protocol") == {
            ProtocolId.TELNET: 2, ProtocolId.MQTT: 1,
        }
        assert database.count_by("protocol", unique="address") == {
            ProtocolId.TELNET: 2, ProtocolId.MQTT: 1,
        }

    def test_iter_rows_round_trips_records(self, database, records):
        rows = list(database.iter_rows())
        assert rows == records
        assert all(type(row) is ScanRecord for row in rows)
        assert rows[0].address == 1
        assert rows[0].banner_text == "login:"

    def test_merge_dedupes_first_wins(self, database):
        other = ScanDatabase()
        other.add(database.row(0))
        other.add(ScanRecord(address=9, port=23, protocol=ProtocolId.TELNET,
                             transport=TransportKind.TCP, banner=b"hi",
                             response=b"", timestamp=0, source="shodan"))
        merged = database.merge(other)
        assert len(merged) == 4
        assert merged.unique_hosts() == {1, 2, 9}

    @settings(max_examples=150, deadline=None)
    @given(_scan_rows, _scan_rows)
    def test_merge_equals_row_loop(self, first_rows, second_rows):
        """The columnar merge against the row loop it replaced: few
        distinct keys, so duplicates land inside each store and across
        the two, and either store may be empty."""
        first, second = ScanDatabase(first_rows), ScanDatabase(second_rows)
        merged = first.merge(second)
        expected = row_merge(first, second)
        assert list(merged.iter_rows()) == list(expected.iter_rows())
        assert merged.to_jsonl() == expected.to_jsonl()
        assert type(merged) is ScanDatabase
        assert merged is not first and merged is not second


class TestAcceptContract:
    def test_accept_default_is_the_banner(self):
        server = TelnetServer(TelnetConfig(auth_required=False))
        assert server.accept(session=object()) == server.banner()
