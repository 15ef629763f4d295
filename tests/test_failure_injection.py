"""Failure-injection tests: the pipeline must degrade, never crash.

A measurement pipeline meets hostile inputs by definition — devices that
answer garbage, services that die mid-session, empty worlds, total packet
loss.  Each test injects one failure and asserts the pipeline's behaviour
stays defined.
"""

import pytest

from repro.analysis.country import country_distribution
from repro.analysis.fingerprint import HoneypotFingerprinter
from repro.analysis.infected import analyze_infected_hosts
from repro.analysis.misconfig import classify_database, classify_record
from repro.analysis.multistage import detect_multistage
from repro.attacks.actors import ActorRegistry
from repro.attacks.malware import MalwareCorpus
from repro.core.taxonomy import Misconfig
from repro.honeypots.events import EventStore
from repro.internet.fabric import SimulatedInternet
from repro.internet.host import SimulatedHost
from repro.intel.virustotal import VirusTotalDB
from repro.net.asn import AsnRegistry
from repro.net.geo import GeoRegistry
from repro.net.ipv4 import ip_to_int
from repro.net.prng import RandomStream
from repro.net.rdns import ReverseDns
from repro.protocols.base import (
    ProtocolId,
    ProtocolServer,
    ServerReply,
    Session,
    TransportKind,
)
from repro.scanner.records import ScanDatabase, ScanRecord
from repro.scanner.zmap import InternetScanner, ScanConfig
from repro.telescope.telescope import NetworkTelescope, TelescopeConfig


class GarbageServer(ProtocolServer):
    """A device that answers every probe with random-looking junk."""

    protocol = ProtocolId.TELNET

    def __init__(self, junk: bytes) -> None:
        self.junk = junk

    def banner(self) -> bytes:
        return self.junk

    def handle(self, request: bytes, session: Session) -> ServerReply:
        return ServerReply(self.junk)


class DyingServer(ProtocolServer):
    """A service that accepts the connection then dies immediately."""

    protocol = ProtocolId.MQTT

    def banner(self) -> bytes:
        return b""

    def handle(self, request: bytes, session: Session) -> ServerReply:
        return ServerReply(close=True)


class TestScannerResilience:
    @pytest.mark.parametrize("junk", [
        b"", b"\x00" * 64, b"\xff" * 64, bytes(range(256)),
        "ütf-8 junk — ünïcode".encode(), b"\xff\xfd",  # truncated IAC
    ])
    def test_garbage_banners_survive_pipeline(self, junk):
        host = SimulatedHost(
            address=ip_to_int("9.9.9.9"), services={23: GarbageServer(junk)},
        )
        scanner = InternetScanner(
            SimulatedInternet([host]),
            ScanConfig(protocols=(ProtocolId.TELNET,)),
        )
        records = list(scanner.run_campaign())
        assert len(records) == 1
        # Classification and fingerprinting must not raise.
        classify_record(records[0])
        HoneypotFingerprinter().fingerprint_record(records[0])

    def test_dying_service_yields_record_without_response(self):
        host = SimulatedHost(
            address=ip_to_int("9.9.9.10"), services={1883: DyingServer()},
        )
        scanner = InternetScanner(
            SimulatedInternet([host]), ScanConfig(protocols=(ProtocolId.MQTT,))
        )
        records = list(scanner.run_campaign())
        assert len(records) == 1
        assert records[0].response == b""
        assert classify_record(records[0]) == Misconfig.NONE

    def test_empty_world_scan(self):
        scanner = InternetScanner(SimulatedInternet())
        database = scanner.run_campaign()
        assert len(database) == 0
        report = classify_database(database)
        assert report.total == 0

    def test_total_loss_world(self):
        hosts = [
            SimulatedHost(address=ip_to_int(f"9.9.9.{i}"),
                          services={23: GarbageServer(b"x")})
            for i in range(1, 10)
        ]
        net = SimulatedInternet(hosts, loss_rate=0.99,
                                loss_stream=RandomStream(1, "loss"))
        scanner = InternetScanner(
            net, ScanConfig(protocols=(ProtocolId.TELNET,), udp_retries=0)
        )
        # Nothing to assert beyond "terminates and undercounts".
        records = list(scanner.run_campaign())
        assert len(records) <= len(hosts)


class TestAnalysisOnEmptyInputs:
    def test_fingerprint_empty_database(self):
        report = HoneypotFingerprinter().fingerprint(ScanDatabase())
        assert report.total == 0
        assert report.addresses() == set()

    def test_country_distribution_empty(self):
        report = country_distribution([], GeoRegistry(1))
        assert report.total == 0
        assert report.rows(GeoRegistry(1)) == []

    def test_multistage_empty_log(self):
        report = detect_multistage(EventStore(), ReverseDns())
        assert report.total == 0
        assert report.stage_counts() == []
        assert report.starting_protocols() == {}

    def test_infected_analysis_with_no_overlap(self):
        registry = ActorRegistry()
        telescope = NetworkTelescope(
            registry, GeoRegistry(1), AsnRegistry(1),
            TelescopeConfig(seed=1, telnet_source_scale=10**6,
                            source_scale=2048, packet_scale=10**7,
                            rsdos_attacks_per_day=0),
        ).capture_month()
        virustotal = VirusTotalDB.build_from(registry, MalwareCorpus(1))
        report = analyze_infected_hosts(
            set(), EventStore(), telescope, virustotal,
        )
        assert report.total_infected_misconfigured == 0
        assert report.virustotal_flagged_fraction == 0.0

    def test_classify_record_with_wrong_protocol_bytes(self):
        """An MQTT response fed to the AMQP classifier (cross-protocol
        confusion) must return NONE, not crash."""
        from repro.protocols.mqtt import ConnectReturnCode, encode_connack

        record = ScanRecord(
            address=1, port=5672, protocol=ProtocolId.AMQP,
            transport=TransportKind.TCP,
            response=encode_connack(ConnectReturnCode.ACCEPTED),
        )
        assert classify_record(record) == Misconfig.NONE


class TestHoneypotResilience:
    def test_flooded_honeypot_sessions_return_none(self):
        """After an HTTP flood crashes the frontend, further sessions are
        answered with nothing, not an error."""
        from repro.honeypots.deployment import build_deployment

        http = build_deployment().get("HosTaGe").services[80]
        http.crashed = True
        session = http.open_session(peer=ip_to_int("5.5.5.5"))
        http.accept(session)
        # The connection succeeds but the service closes without bytes.
        assert http.handle(b"GET / HTTP/1.1\r\n\r\n", session).data == b""
