"""Tests for the FlowTuple codec and the telescope generator."""

import pytest
from hypothesis import given, strategies as st

from repro.attacks.actors import ActorRegistry, SourceInfo
from repro.core.taxonomy import TrafficClass
from repro.net.asn import AsnRegistry
from repro.net.errors import ProtocolError
from repro.net.geo import GeoRegistry
from repro.net.ipv4 import CidrBlock
from repro.net.packet import TransportProtocol
from repro.protocols.base import ProtocolId
from repro.telescope.flowtuple import (
    FlowTupleRecord,
    FlowTupleWriter,
    decode_flowtuple,
    encode_flowtuple,
)
from repro.telescope.telescope import (
    PAPER_TELESCOPE,
    NetworkTelescope,
    TelescopeCapture,
    TelescopeConfig,
)


class TestFlowTupleCodec:
    @given(
        st.integers(min_value=0, max_value=30 * 86_400),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=65_535),
        st.integers(min_value=0, max_value=65_535),
        st.sampled_from([TransportProtocol.TCP, TransportProtocol.UDP]),
        st.integers(min_value=1, max_value=10**6),
        st.booleans(),
        st.booleans(),
    )
    def test_round_trip(self, time, src, dst, sport, dport, proto, count,
                        spoofed, masscan):
        record = FlowTupleRecord(
            time=time, src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
            protocol=proto, packet_count=count, is_spoofed=spoofed,
            is_masscan=masscan, country="US", asn=64_500,
        )
        decoded = decode_flowtuple(encode_flowtuple(record))
        assert decoded == record

    def test_decode_rejects_wrong_field_count(self):
        with pytest.raises(ProtocolError):
            decode_flowtuple("1,2,3")

    def test_day_property(self):
        record = FlowTupleRecord(time=3 * 86_400 + 5, src_ip=1, dst_ip=2,
                                 src_port=1, dst_port=2,
                                 protocol=TransportProtocol.TCP)
        assert record.day == 3

    def test_writer_day_files(self):
        writer = FlowTupleWriter()
        for day in (0, 0, 2):
            writer.add(FlowTupleRecord(
                time=day * 86_400, src_ip=1, dst_ip=2, src_port=1, dst_port=2,
                protocol=TransportProtocol.TCP,
            ))
        assert writer.days() == [0, 2]
        assert len(list(writer.lines_for_day(0))) == 2
        assert len(list(writer.iter_rows())) == 3


@pytest.fixture(scope="module")
def capture():
    registry = ActorRegistry()
    for index in range(40):
        registry.register(SourceInfo(
            address=10_000 + index,
            traffic_class=(TrafficClass.SCANNING_SERVICE if index < 10
                           else TrafficClass.MALICIOUS),
            visits_telescope=True,
            infected_misconfigured=index >= 30,
        ))
    telescope = NetworkTelescope(
        registry, GeoRegistry(7), AsnRegistry(7),
        TelescopeConfig(seed=7, telnet_source_scale=65_536, source_scale=512,
                        packet_scale=131_072),
    )
    return telescope.capture_month(), registry


class TestTelescopeCapture:
    def test_volume_ratios_match_table8(self, capture):
        cap, _ = capture
        telnet = cap.daily_average_rescaled(ProtocolId.TELNET)
        for protocol, (daily_avg, _, _) in PAPER_TELESCOPE.items():
            got = cap.daily_average_rescaled(protocol)
            expected_ratio = daily_avg / PAPER_TELESCOPE[ProtocolId.TELNET][0]
            assert got / telnet == pytest.approx(expected_ratio, rel=0.25)

    def test_telnet_dominates_everything(self, capture):
        cap, _ = capture
        telnet_sources = len(cap.unique_sources(ProtocolId.TELNET))
        for protocol in PAPER_TELESCOPE:
            if protocol != ProtocolId.TELNET:
                assert telnet_sources > len(cap.unique_sources(protocol))

    def test_all_registry_telescope_sources_appear(self, capture):
        cap, registry = capture
        captured = cap.unique_sources()
        for info in registry:
            if info.visits_telescope and (
                info.traffic_class != TrafficClass.SCANNING_SERVICE
            ):
                assert info.address in captured

    def test_suspicious_excludes_scanning(self, capture):
        cap, _ = capture
        for protocol in PAPER_TELESCOPE:
            suspicious = cap.suspicious_sources(protocol)
            scanning = cap.scanning_sources_by_protocol[protocol]
            assert not suspicious & scanning

    def test_records_target_dark_space(self, capture):
        cap, _ = capture
        dark = CidrBlock.parse("44.0.0.0/8")
        for record in cap.writer.iter_rows():
            assert record.dst_ip in dark

    def test_ports_match_protocols(self, capture):
        cap, _ = capture
        ports = {record.dst_port for record in cap.writer.iter_rows()}
        assert 23 in ports and 1900 in ports and 5683 in ports

    def test_country_and_asn_annotated(self, capture):
        cap, _ = capture
        record = next(iter(cap.writer.iter_rows()))
        assert record.country
        assert record.asn >= 64_496

    def test_deterministic(self):
        def build():
            telescope = NetworkTelescope(
                ActorRegistry(), GeoRegistry(7), AsnRegistry(7),
                TelescopeConfig(seed=13, telnet_source_scale=131_072,
                                source_scale=1024, packet_scale=10**6),
            )
            return telescope.capture_month()

        a, b = build(), build()
        assert ([encode_flowtuple(r) for r in a.writer.iter_rows()]
                == [encode_flowtuple(r) for r in b.writer.iter_rows()])

    def test_invalid_config(self):
        from repro.net.errors import ConfigError

        with pytest.raises(ConfigError):
            TelescopeConfig(packet_scale=0)
