"""Tests for the open-dataset providers (Project Sonar, Shodan, Censys)."""

import pytest

from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.protocols.base import ProtocolId
from repro.scanner.datasets import (
    CENSYS_IOT_TYPES,
    SHODAN_COVERAGE,
    SONAR_COVERAGE,
    censys,
    project_sonar,
    shodan,
)


@pytest.fixture(scope="module")
def world():
    return PopulationBuilder(
        PopulationConfig(seed=7, scale=4096, honeypot_scale=512)
    ).build()


class TestCoverageTables:
    def test_rates_in_unit_interval(self):
        for table in (SONAR_COVERAGE, SHODAN_COVERAGE):
            for protocol, rate in table.items():
                assert 0.0 < rate <= 1.0, protocol

    def test_sonar_lacks_amqp_xmpp(self):
        assert ProtocolId.AMQP not in SONAR_COVERAGE
        assert ProtocolId.XMPP not in SONAR_COVERAGE

    def test_shodan_covers_all_six(self):
        assert len(SHODAN_COVERAGE) == 6

    def test_iot_type_catalog(self):
        assert "Camera" in CENSYS_IOT_TYPES
        assert "Server" not in CENSYS_IOT_TYPES


class TestProviders:
    def test_sonar_telnet_port_23_only(self, world):
        database = project_sonar(seed=7).snapshot(world.internet)
        telnet_ports = {
            record.port
            for record in database.where(protocol=ProtocolId.TELNET)
        }
        assert telnet_ports == {23}

    def test_shodan_samples_heavily_on_telnet(self, world):
        database = shodan(seed=7).snapshot(world.internet)
        counts = database.counts_by_protocol()
        truth = len(world.by_protocol[ProtocolId.TELNET])
        assert counts[ProtocolId.TELNET] < 0.1 * truth

    def test_coverage_rates_respected(self, world):
        database = project_sonar(seed=7).snapshot(world.internet)
        counts = database.counts_by_protocol()
        truth = len(world.by_protocol[ProtocolId.MQTT])
        expected = SONAR_COVERAGE[ProtocolId.MQTT] * truth
        assert abs(counts[ProtocolId.MQTT] - expected) < 0.15 * truth

    def test_records_tagged_with_provider(self, world):
        database = shodan(seed=7).snapshot(world.internet)
        assert all(record.source == "shodan" for record in database)

    def test_providers_sample_independently(self, world):
        sonar_hosts = project_sonar(seed=7).snapshot(
            world.internet).unique_hosts(ProtocolId.COAP)
        shodan_hosts = shodan(seed=7).snapshot(
            world.internet).unique_hosts(ProtocolId.COAP)
        # Realistic overlap: neither identical nor disjoint.
        assert sonar_hosts != shodan_hosts
        assert sonar_hosts & shodan_hosts

    def test_deterministic_snapshots(self, world):
        a = project_sonar(seed=7).snapshot(world.internet)
        b = project_sonar(seed=7).snapshot(world.internet)
        assert a.unique_hosts() == b.unique_hosts()

    def test_censys_broad_coverage(self, world):
        database = censys(seed=7).snapshot(world.internet)
        counts = database.counts_by_protocol()
        truth = len(world.by_protocol[ProtocolId.TELNET])
        assert counts[ProtocolId.TELNET] > 0.5 * truth
