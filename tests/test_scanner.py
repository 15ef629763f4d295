"""Tests for the scan engine, records, probes and blocklists."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.device_type import build_device_signatures
from repro.internet.fabric import SimulatedInternet
from repro.internet.host import SimulatedHost
from repro.net.geo import GeoRegistry
from repro.net.ipv4 import RESERVED_BLOCKS, CidrBlock, ip_to_int
from repro.protocols.base import DEFAULT_PORTS, ProtocolId, TransportKind
from repro.protocols.mqtt import MqttBroker, MqttConfig
from repro.protocols.telnet import TelnetConfig, TelnetServer
from repro.scanner.blocklist import (
    CidrBlocklist,
    CompositeBlocklist,
    GeoBlocklist,
    zmap_default_blocklist,
)
from repro.scanner.probes import tcp_probe_payload, udp_probe_payload
from repro.scanner.records import ScanDatabase, ScanRecord
from repro.scanner.zmap import SCAN_START_DAY, InternetScanner, ScanConfig
from repro.scanner.ztag import TagEngine, TagSignature


def _campaign(net, protocol, udp_retries=1, **scanner_kwargs):
    """Rows of a one-protocol campaign on the shipping (sharded) path."""
    config = ScanConfig(protocols=(protocol,), udp_retries=udp_retries)
    scanner = InternetScanner(net, config, **scanner_kwargs)
    return list(scanner.run_campaign())


def _telnet_host(text):
    return SimulatedHost(
        address=ip_to_int(text),
        services={23: TelnetServer(TelnetConfig(auth_required=False))},
    )


class TestProbes:
    def test_tcp_probes_defined_for_handshake_protocols(self):
        for protocol in (ProtocolId.MQTT, ProtocolId.AMQP, ProtocolId.XMPP):
            assert tcp_probe_payload(protocol)

    def test_telnet_is_banner_only(self):
        assert tcp_probe_payload(ProtocolId.TELNET) is None

    def test_udp_probes(self):
        assert udp_probe_payload(ProtocolId.COAP)
        assert b"ssdp:discover" in udp_probe_payload(ProtocolId.UPNP)
        with pytest.raises(KeyError):
            udp_probe_payload(ProtocolId.TELNET)


class TestScanner:
    def test_finds_open_telnet(self):
        net = SimulatedInternet([_telnet_host("1.2.3.4")])
        records = _campaign(net, ProtocolId.TELNET)
        assert len(records) == 1
        assert records[0].address == ip_to_int("1.2.3.4")
        assert b"$" in records[0].banner

    def test_mqtt_probe_elicits_connack(self):
        host = SimulatedHost(
            address=ip_to_int("1.2.3.5"),
            services={1883: MqttBroker(MqttConfig(auth_required=False))},
        )
        records = _campaign(SimulatedInternet([host]), ProtocolId.MQTT)
        assert records[0].response[0] >> 4 == 2  # CONNACK

    def test_blocklist_skips_targets(self):
        net = SimulatedInternet([_telnet_host("1.2.3.4")])
        blocklist = CidrBlocklist([CidrBlock.parse("1.0.0.0/8")])
        assert _campaign(net, ProtocolId.TELNET, blocklist=blocklist) == []

    def test_host_filter(self):
        hosts = [_telnet_host("1.2.3.4"), _telnet_host("1.2.3.5")]
        net = SimulatedInternet(hosts)
        records = _campaign(
            net, ProtocolId.TELNET,
            host_filter=lambda a: a == ip_to_int("1.2.3.4"),
        )
        assert [r.address for r in records] == [ip_to_int("1.2.3.4")]

    def test_timestamps_follow_scan_calendar(self):
        net = SimulatedInternet([_telnet_host("1.2.3.4")])
        records = _campaign(net, ProtocolId.TELNET)
        assert records[0].timestamp == SCAN_START_DAY[ProtocolId.TELNET] * 86_400

    def test_udp_retry_recovers_loss(self):
        from repro.net.prng import RandomStream
        from repro.protocols.coap import CoapConfig, CoapServer

        host = SimulatedHost(
            address=ip_to_int("1.2.3.6"),
            services={5683: CoapServer(CoapConfig(access="read"))},
        )
        net = SimulatedInternet(
            [host], loss_rate=0.4, loss_stream=RandomStream(5, "loss")
        )
        found_with_retries = len(
            _campaign(net, ProtocolId.COAP, udp_retries=6)
        )
        assert found_with_retries == 1


class TestScanDatabase:
    def _record(self, address, protocol=ProtocolId.TELNET, port=23):
        return ScanRecord(
            address=address, port=port, protocol=protocol,
            transport=TransportKind.TCP, banner=b"x",
        )

    def test_counts_unique_hosts(self):
        db = ScanDatabase([self._record(1), self._record(1, port=2323),
                           self._record(2)])
        assert db.counts_by_protocol()[ProtocolId.TELNET] == 2
        assert db.unique_hosts() == {1, 2}

    def test_merge_dedupes(self):
        a = ScanDatabase([self._record(1)])
        b = ScanDatabase([self._record(1), self._record(2)])
        merged = a.merge(b)
        assert len(merged) == 2
        assert merged.unique_hosts() == {1, 2}

    def test_merge_prefers_first(self):
        rich = self._record(1)._replace(banner=b"rich-banner")
        poor = self._record(1)._replace(banner=b"")
        merged = ScanDatabase([rich]).merge(ScanDatabase([poor]))
        assert list(merged)[0].banner == b"rich-banner"

    def test_jsonl_round_trip_fields(self):
        import json

        record = self._record(ip_to_int("1.2.3.4"))
        row = json.loads(record.to_json())
        assert row["ip"] == "1.2.3.4"
        assert row["protocol"] == "telnet"
        assert bytes.fromhex(row["banner"]) == b"x"


def _block(address, prefix):
    """The ``/prefix`` block holding ``address`` (host bits zeroed)."""
    mask = 0 if prefix == 0 else (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF
    return CidrBlock(address & mask, prefix)


@st.composite
def _cidr_sets(draw):
    """CIDR sets with overlapping, nested and adjacent blocks, ``/0``,
    ``/32`` and the reserved ranges."""
    blocks = draw(st.lists(
        st.one_of(
            st.builds(_block, st.integers(0, 2**32 - 1), st.integers(0, 32)),
            st.builds(_block, st.integers(0, 2**32 - 1), st.just(32)),
            st.just(_block(0, 0)),
            st.sampled_from(RESERVED_BLOCKS),
        ),
        max_size=6,
    ))
    if draw(st.booleans()):
        blocks += RESERVED_BLOCKS
    for block in list(blocks):
        kind = draw(st.sampled_from(("nested", "sibling", "next", "super", "")))
        if kind == "nested" and block.prefix < 32:
            blocks.append(_block(
                draw(st.integers(block.first, block.last)),
                draw(st.integers(block.prefix + 1, 32)),
            ))
        elif kind == "sibling" and block.prefix > 0:
            blocks.append(_block(block.first ^ block.size, block.prefix))
        elif kind == "next" and block.last < 2**32 - 1:
            blocks.append(_block(block.last + 1, draw(st.integers(block.prefix, 32))))
        elif kind == "super" and block.prefix > 0:
            blocks.append(_block(block.first, draw(st.integers(0, block.prefix - 1))))
    return draw(st.permutations(blocks))


class TestBlocklists:
    def test_zmap_default_blocks_reserved(self):
        blocklist = zmap_default_blocklist()
        assert blocklist.blocks(ip_to_int("127.0.0.1"))
        assert blocklist.blocks(ip_to_int("10.1.2.3"))
        assert not blocklist.blocks(ip_to_int("8.8.8.8"))

    def test_geo_blocklist(self):
        geo = GeoRegistry(7)
        blocklist = GeoBlocklist(geo, {"DE"})
        blocked = [a for a in range(0, 2**32, 2**24)
                   if blocklist.blocks(a)]
        assert blocked  # some /8s land in DE
        for address in blocked:
            assert geo.country_of(address) == "DE"

    def test_composite(self):
        blocklist = CompositeBlocklist([
            CidrBlocklist([CidrBlock.parse("1.0.0.0/8")]),
            CidrBlocklist([CidrBlock.parse("2.0.0.0/8")]),
        ])
        assert blocklist.blocks(ip_to_int("1.1.1.1"))
        assert blocklist.blocks(ip_to_int("2.1.1.1"))
        assert not blocklist.blocks(ip_to_int("3.1.1.1"))

    @settings(max_examples=300, deadline=None)
    @given(_cidr_sets(), st.lists(st.integers(0, 2**32 - 1), max_size=5))
    def test_merged_intervals_equal_any_contains(self, blocks, extra):
        blocklist = CidrBlocklist(blocks)
        probes = {0, 2**32 - 1, *extra}
        for block in blocks:
            probes.update((block.first - 1, block.first, block.last, block.last + 1))
        for address in sorted(a for a in probes if 0 <= a < 2**32):
            assert blocklist.blocks(address) == any(
                block.contains(address) for block in blocks
            ), (address, blocks)
        assert len(blocklist) == len(blocks)


class TestTagEngine:
    def test_first_match_wins_per_namespace(self):
        engine = TagEngine([
            TagSignature("PK5001Z", (("device_type", "DSL Modem"),)),
            TagSignature("PK", (("device_type", "Generic"),)),
        ])
        record = ScanRecord(
            address=1, port=23, protocol=ProtocolId.TELNET,
            transport=TransportKind.TCP, banner=b"PK5001Z login:",
        )
        assert engine.tag_record(record).tag("device_type") == "DSL Modem"

    def test_protocol_restriction(self):
        engine = TagEngine([
            TagSignature("x", (("k", "v"),), protocol="mqtt"),
        ])
        record = ScanRecord(
            address=1, port=23, protocol=ProtocolId.TELNET,
            transport=TransportKind.TCP, banner=b"x",
        )
        assert engine.tag_record(record).tag("k") is None

    def test_where_restriction(self):
        engine = TagEngine([
            TagSignature("marker", (("k", "v"),), where="response"),
        ])
        banner_only = ScanRecord(
            address=1, port=23, protocol=ProtocolId.TELNET,
            transport=TransportKind.TCP, banner=b"marker",
        )
        assert engine.tag_record(banner_only).tag("k") is None


class TestTagMemo:
    """Tags memoized per (protocol, banner, response) equal a fresh
    signature fold, and callers cannot change the memo."""

    def test_tags_equal_signature_fold(self, quick_study):
        signatures = build_device_signatures()
        engine = TagEngine(signatures)
        rows = list(quick_study.merged_db.iter_rows())
        for row in rows:
            expected = {}
            for signature in signatures:
                if signature.matches(row):
                    for namespace, value in signature.tags:
                        expected.setdefault(namespace, value)
            assert engine.tag_record(row).tags == expected
        texts = {(row.protocol, row.banner, row.response) for row in rows}
        assert len(texts) < len(rows)  # the memo was hit

    def test_mutating_returned_tags_leaves_memo(self, quick_study):
        engine = TagEngine(build_device_signatures())
        row = next(
            row for row in quick_study.merged_db.iter_rows()
            if engine.tag_record(row).tags
        )
        expected = dict(engine.tag_record(row).tags)
        poisoned = engine.tag_record(row)
        poisoned.tags.clear()
        poisoned.tags["device_type"] = "poisoned"
        assert engine.tag_record(row).tags == expected
        assert engine.tag_record(row._replace(address=row.address + 1)).tags == expected

    def test_matches_delegates_to_text(self):
        signature = TagSignature("PK5001Z", (("k", "v"),), protocol="telnet")
        record = ScanRecord(
            address=1, port=23, protocol=ProtocolId.TELNET,
            transport=TransportKind.TCP, banner=b"PK5001Z login:",
        )
        assert signature.matches(record)
        assert signature.matches_text("telnet", "PK5001Z login:", "")
        assert not signature.matches_text("mqtt", "PK5001Z login:", "")
