"""Tests for the analysis stack: misconfig, fingerprint, device types,
countries — against the live scan pipeline."""

import pytest

from repro.analysis.country import country_distribution
from repro.analysis.device_type import identify_device_types
from repro.analysis.fingerprint import HoneypotFingerprinter, default_signatures
from repro.analysis.misconfig import (
    VULNERABLE_AMQP_VERSIONS,
    _classify_text,
    classify_database,
    classify_record,
)
from repro.core.taxonomy import Misconfig
from repro.internet.wild_honeypots import WILD_HONEYPOT_CATALOG
from repro.net.geo import GeoRegistry
from repro.protocols.base import ProtocolId, TransportKind
from repro.scanner.records import ScanDatabase, ScanRecord
from repro.scanner.zmap import InternetScanner


def _record(protocol, banner=b"", response=b"", address=1):
    return ScanRecord(
        address=address, port=23, protocol=protocol,
        transport=TransportKind.TCP, banner=banner, response=response,
    )


class TestMisconfigClassifier:
    def test_telnet_root_prompt(self):
        record = _record(ProtocolId.TELNET, banner=b"root@camera:~$ ")
        assert classify_record(record) == Misconfig.TELNET_NO_AUTH_ROOT

    def test_telnet_admin_prompt(self):
        record = _record(ProtocolId.TELNET, banner=b"admin@modem:~$ ")
        assert classify_record(record) == Misconfig.TELNET_NO_AUTH_ROOT

    def test_telnet_plain_prompt(self):
        record = _record(ProtocolId.TELNET, banner=b"BusyBox v1.19\r\n$ ")
        assert classify_record(record) == Misconfig.TELNET_NO_AUTH

    def test_telnet_login_prompt_is_healthy(self):
        record = _record(ProtocolId.TELNET, banner=b"PK5001Z login: ")
        assert classify_record(record) == Misconfig.NONE

    def test_mqtt_connack_zero(self):
        from repro.protocols.mqtt import ConnectReturnCode, encode_connack

        accepted = _record(
            ProtocolId.MQTT,
            response=encode_connack(ConnectReturnCode.ACCEPTED),
        )
        refused = _record(
            ProtocolId.MQTT,
            response=encode_connack(ConnectReturnCode.NOT_AUTHORIZED),
        )
        assert classify_record(accepted) == Misconfig.MQTT_NO_AUTH
        assert classify_record(refused) == Misconfig.NONE

    def test_amqp_vulnerable_version(self):
        from repro.protocols.amqp import encode_connection_start

        for version in VULNERABLE_AMQP_VERSIONS:
            record = _record(
                ProtocolId.AMQP,
                response=encode_connection_start("RabbitMQ", version, ["PLAIN"]),
            )
            assert classify_record(record) == Misconfig.AMQP_NO_AUTH

    def test_amqp_anonymous_mechanism(self):
        from repro.protocols.amqp import encode_connection_start

        record = _record(
            ProtocolId.AMQP,
            response=encode_connection_start("RabbitMQ", "3.8.9",
                                             ["PLAIN", "ANONYMOUS"]),
        )
        assert classify_record(record) == Misconfig.AMQP_NO_AUTH

    def test_amqp_modern_plain_healthy(self):
        from repro.protocols.amqp import encode_connection_start

        record = _record(
            ProtocolId.AMQP,
            response=encode_connection_start("RabbitMQ", "3.8.9", ["PLAIN"]),
        )
        assert classify_record(record) == Misconfig.NONE

    def test_xmpp_anonymous_beats_plain(self):
        from repro.protocols.xmpp import stream_features

        record = _record(
            ProtocolId.XMPP,
            response=stream_features(["ANONYMOUS", "PLAIN"], False, False)
            .encode(),
        )
        assert classify_record(record) == Misconfig.XMPP_ANONYMOUS

    def test_xmpp_plain_without_tls(self):
        from repro.protocols.xmpp import stream_features

        record = _record(
            ProtocolId.XMPP,
            response=stream_features(["PLAIN"], False, False).encode(),
        )
        assert classify_record(record) == Misconfig.XMPP_NO_ENCRYPTION

    def test_xmpp_plain_with_tls_is_healthy(self):
        from repro.protocols.xmpp import stream_features

        record = _record(
            ProtocolId.XMPP,
            response=stream_features(["PLAIN"], True, True).encode(),
        )
        assert classify_record(record) == Misconfig.NONE

    def test_coap_markers(self):
        admin = _record(ProtocolId.COAP, response=b"...220-Admin </a>")
        full = _record(ProtocolId.COAP, response=b"..x1C </sensors/t>")
        listing = _record(ProtocolId.COAP, response=b"..</sensors/t>;rt=\"x\"")
        assert classify_record(admin) == Misconfig.COAP_NO_AUTH_ADMIN
        assert classify_record(full) == Misconfig.COAP_NO_AUTH
        assert classify_record(listing) == Misconfig.COAP_REFLECTOR

    def test_upnp_location_disclosure(self):
        leaky = _record(ProtocolId.UPNP,
                        response=b"HTTP/1.1 200 OK\r\nLOCATION: http://x\r\n")
        quiet = _record(ProtocolId.UPNP,
                        response=b"HTTP/1.1 200 OK\r\nSERVER: x\r\n")
        assert classify_record(leaky) == Misconfig.UPNP_REFLECTOR
        assert classify_record(quiet) == Misconfig.NONE

    def test_empty_records_healthy(self):
        for protocol in ProtocolId:
            assert classify_record(_record(protocol)) == Misconfig.NONE


class TestMisconfigCache:
    """The verdict cache keyed on (protocol, banner, response)."""

    def test_cached_equals_uncached_handler(self, quick_study):
        uncached = _classify_text.__wrapped__
        for row in quick_study.merged_db.iter_rows():
            assert classify_record(row) == uncached(
                row.protocol, row.banner, row.response
            )

    def test_cache_stays_within_maxsize(self):
        maxsize = _classify_text.cache_info().maxsize
        assert maxsize == 4096
        for index in range(maxsize + 100):
            classify_record(_record(
                ProtocolId.TELNET, banner=b"host%d:~$ " % index,
            ))
        assert _classify_text.cache_info().currsize <= maxsize


class TestPipelineFidelity:
    """End-to-end: scan the world, classify, compare with ground truth."""

    @pytest.fixture(scope="class")
    def scanned(self, population):
        db = InternetScanner(population.internet).run_campaign()
        fingerprinter = HoneypotFingerprinter()
        report = fingerprinter.fingerprint(db)
        report = fingerprinter.active_ssh_probe(
            population.internet,
            (h.address for h in population.internet.hosts()),
            report=report,
        )
        return db, report

    def test_all_wild_honeypots_detected(self, population, scanned):
        _, report = scanned
        truth = {h.address for h in population.wild_honeypots}
        assert report.addresses() == truth

    def test_per_product_detection(self, population, scanned):
        _, report = scanned
        from collections import Counter

        truth = Counter(h.honeypot_kind for h in population.wild_honeypots)
        for name, count in report.rows():
            assert count == truth[name]

    def test_misconfig_classification_matches_ground_truth(
        self, population, scanned
    ):
        db, report = scanned
        measured = classify_database(db, exclude_addresses=report.addresses())
        for label, hosts in population.misconfigured.items():
            assert measured.count(label) == len(hosts), label
        assert measured.total == len(population.misconfigured_addresses())

    def test_without_filtering_honeypots_pollute(self, population, scanned):
        """The paper's motivation: Anglerfish banners would otherwise be
        counted as root-console misconfigurations."""
        db, report = scanned
        unfiltered = classify_database(db)
        filtered = classify_database(db, exclude_addresses=report.addresses())
        pollution = unfiltered.total - filtered.total
        anglerfish = sum(
            1 for h in population.wild_honeypots
            if h.honeypot_kind == "Anglerfish"
        )
        assert pollution >= anglerfish

    def test_device_types_identified(self, population, scanned):
        db, _ = scanned
        report = identify_device_types(db)
        assert report.identified > 0
        telnet_top = dict(report.top_types(ProtocolId.TELNET))
        assert "Camera" in telnet_top or "DSL Modem" in telnet_top

    def test_device_type_percentages_sum_to_100(self, scanned):
        db, _ = scanned
        report = identify_device_types(db)
        for protocol, table in report.counts.items():
            if table:
                total = sum(report.percentages(protocol).values())
                assert abs(total - 100.0) < 1e-6


class TestFingerprintSignatures:
    def test_signature_per_catalog_product(self):
        names = {signature.honeypot for signature in default_signatures()}
        assert names == {kind.name for kind in WILD_HONEYPOT_CATALOG}

    def test_no_false_positive_on_real_device(self):
        fingerprinter = HoneypotFingerprinter()
        record = _record(ProtocolId.TELNET, banner=b"PK5001Z login: ")
        assert fingerprinter.fingerprint_record(record) is None

    def test_cowrie_banner_detected(self):
        fingerprinter = HoneypotFingerprinter()
        record = _record(ProtocolId.TELNET, banner=b"\xff\xfd\x1flogin: ")
        assert fingerprinter.fingerprint_record(record) == "Cowrie"


class TestCountryRollup:
    def test_histogram_and_shares(self):
        geo = GeoRegistry(7)
        from repro.net.prng import RandomStream

        stream = RandomStream(9, "country-test")
        addresses = [stream.randint(0, 2**32 - 1) for _ in range(5000)]
        report = country_distribution(addresses, geo)
        assert report.total == 5000
        rows = report.rows(geo)
        assert rows[0][1] >= rows[-1][1]  # sorted descending
        assert abs(sum(percent for _, _, percent in rows) - 100.0) < 1e-6
        # US leads, as in Table 10.
        assert rows[0][0] == "USA"
