"""Tests for the open-dataset providers (Project Sonar, Shodan, Censys)."""

import os
import shutil

import pytest

from repro import Study, StudyConfig
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.net.prng import RandomStream
from repro.protocols.base import ProtocolId
from repro.scanner.datasets import (
    CENSYS_IOT_TYPES,
    SHODAN_COVERAGE,
    SONAR_COVERAGE,
    censys,
    project_sonar,
    shodan,
)
from tests.oracles.provider_snapshot import provider_snapshot


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


class TestCoverageMask:
    """Each protocol's coverage is one batch of uniform draws — the
    per-host ``bernoulli`` loop it replaced, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 7, 1000, 14_190])
    @pytest.mark.parametrize("rate", [0.0, 0.027, 0.5, 0.961, 1.0, 1.7])
    def test_mask_equals_bernoulli_loop(self, n, rate):
        key = f"dataset.shodan.{ProtocolId.TELNET}"
        loop = RandomStream(209, key)
        expected = [loop.bernoulli(min(1.0, rate)) for _ in range(n)]
        batch = RandomStream(209, key)
        mask = batch.uniform_array(n) < min(1.0, rate)
        assert mask.tolist() == expected
        # The stream continues exactly where the loop left it.
        assert batch.random() == loop.random()

    @pytest.mark.parametrize("factory", [project_sonar, shodan, censys])
    def test_snapshot_equals_per_protocol_oracle(self, factory):
        """One campaign per provider gives the bytes of one scanner and
        campaign per protocol (each on a world no one has probed)."""
        config = PopulationConfig(seed=7, scale=4096, honeypot_scale=512)
        provider = factory(seed=7)
        shipped = provider.snapshot(PopulationBuilder(config).build().internet)
        oracle = provider_snapshot(
            provider, PopulationBuilder(config).build().internet
        )
        assert len(shipped) > 0
        assert shipped.to_jsonl() == oracle.to_jsonl()


def _provider_bytes(config):
    study = Study(config, cache=False)
    study.run_scans()
    return (
        study.results.sonar_db.to_jsonl(),
        study.results.shodan_db.to_jsonl(),
        study.metrics,
    )


def _journal_planes(metrics):
    return {journal.plane: journal for journal in metrics.journals}


class TestProviderBytesInvariance:
    """Sonar and Shodan bytes depend on neither the executor nor the
    resume point: a provider sweep must not see what our own scan did to
    the world's servers, nor whether our scan ran at all."""

    @pytest.mark.parametrize("seed", [7, 23])
    def test_same_bytes_cold_pool_resumed_and_replayed(self, seed, tmp_path):
        cold = _provider_bytes(StudyConfig.quick(seed))[:2]

        pooled = StudyConfig.quick(seed)
        pooled.executor = "process"
        pooled.scan.executor = "process"
        pooled.scan.shards = 2
        assert _provider_bytes(pooled)[:2] == cold

        def journaled():
            config = StudyConfig.quick(seed)
            config.journal_dir = str(tmp_path / "journal")
            config.resume = True
            return config

        first = _provider_bytes(journaled())
        assert first[:2] == cold
        resumed = _provider_bytes(journaled())
        assert resumed[:2] == cold
        planes = _journal_planes(resumed[2])
        assert planes["sonar"].hits == len(SONAR_COVERAGE)
        assert planes["shodan"].hits == len(SHODAN_COVERAGE)
        assert all(journal.stores == 0 for journal in planes.values())

        # Our scan replays from the journal, the providers sweep live:
        # the world's servers have seen no probe of ours this time.
        (root,) = os.listdir(tmp_path / "journal")
        for plane in ("sonar", "shodan"):
            shutil.rmtree(tmp_path / "journal" / root / plane)
        live = _provider_bytes(journaled())
        assert live[:2] == cold
        planes = _journal_planes(live[2])
        assert planes["scan"].stores == 0
        assert planes["sonar"].stores == len(SONAR_COVERAGE)

    def test_corrupted_shodan_entry_quarantined_and_rerun(self, tmp_path):
        cold = _provider_bytes(StudyConfig.quick(7))[:2]
        config = StudyConfig.quick(7)
        config.journal_dir = str(tmp_path / "journal")
        config.resume = True
        _provider_bytes(config)
        (root,) = os.listdir(tmp_path / "journal")
        directory = tmp_path / "journal" / root / "shodan"
        victim = sorted(
            name for name in os.listdir(directory) if name.endswith(".pkl")
        )[0]
        blob = bytearray((directory / victim).read_bytes())
        blob[len(blob) // 2] ^= 0x10
        (directory / victim).write_bytes(bytes(blob))

        sonar, shodan_bytes, metrics = _provider_bytes(config)
        assert (sonar, shodan_bytes) == cold
        planes = _journal_planes(metrics)
        assert planes["shodan"].quarantined == 1
        assert planes["shodan"].stores == 1
        assert planes["shodan"].hits == len(SHODAN_COVERAGE) - 1
        assert planes["sonar"].quarantined == 0
        assert planes["sonar"].stores == 0
