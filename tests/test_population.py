"""Tests for world generation: devices, wild honeypots, population."""

import pickle

import pytest

from repro.core.taxonomy import MISCONFIG_PROTOCOL, Misconfig
from repro.internet.devices import DEVICE_PROFILES, build_server, profiles_for
from repro.internet.population import (
    PAPER_EXPOSED_ZMAP,
    PAPER_MISCONFIG_COUNTS,
    PopulationBuilder,
    PopulationConfig,
)
from repro.internet.wild_honeypots import (
    WILD_HONEYPOT_CATALOG,
    build_wild_honeypot_server,
)
from repro.net.errors import ConfigError
from repro.net.latency import real_device_latency
from repro.net.prng import RandomStream
from repro.protocols.base import ProtocolId


class TestDeviceCatalog:
    def test_every_scanned_protocol_has_profiles(self):
        for protocol in PAPER_EXPOSED_ZMAP:
            assert profiles_for(protocol), f"no profiles for {protocol}"

    def test_table11_exemplars_present(self):
        names = {profile.name for profile in DEVICE_PROFILES}
        for expected in ("HiKVision Camera", "ZyXEL PK5001Z", "Octoprint",
                         "Signify Philips hue bridge", "Synology DS918+"):
            assert expected in names

    def test_build_server_matches_protocol(self):
        stream = RandomStream(1, "t")
        for profile in DEVICE_PROFILES:
            server = build_server(profile, Misconfig.NONE, stream)
            assert server.protocol == profile.protocol

    def test_misconfigured_telnet_banner_has_no_login_prompt(self):
        stream = RandomStream(1, "t2")
        profile = next(p for p in DEVICE_PROFILES
                       if p.name == "ZyXEL PK5001Z")
        server = build_server(profile, Misconfig.TELNET_NO_AUTH, stream)
        text = server.banner().decode("utf-8", errors="replace").lower()
        assert "login" not in text
        assert text.rstrip().endswith("$")


class TestWildHoneypotCatalog:
    def test_paper_total(self):
        assert sum(k.paper_count for k in WILD_HONEYPOT_CATALOG) == 8192

    def test_all_nine_products(self):
        names = {kind.name for kind in WILD_HONEYPOT_CATALOG}
        assert len(names) == 9
        assert "Anglerfish" in names and "Kippo" in names

    def test_banner_served_verbatim(self):
        for kind in WILD_HONEYPOT_CATALOG:
            server = build_wild_honeypot_server(kind)
            assert server.banner() == kind.banner

    def test_kippo_is_ssh(self):
        kippo = next(k for k in WILD_HONEYPOT_CATALOG if k.name == "Kippo")
        assert kippo.protocol == ProtocolId.SSH
        assert kippo.port == 22


class TestPopulationBuilder:
    def test_exposure_proportions(self, population):
        scale = population.config.scale
        for protocol, paper_count in PAPER_EXPOSED_ZMAP.items():
            got = len(population.by_protocol[protocol])
            expected = paper_count / scale
            assert abs(got - expected) <= max(2, expected * 0.02)

    def test_misconfig_counts_scaled(self, population):
        scale = population.config.scale
        for label, paper_count in PAPER_MISCONFIG_COUNTS.items():
            got = len(population.misconfigured[label])
            expected = max(1, round(paper_count / scale))
            assert abs(got - expected) <= max(2, expected * 0.05)

    def test_misconfig_on_matching_protocol(self, population):
        for label, hosts in population.misconfigured.items():
            protocol = MISCONFIG_PROTOCOL[label]
            for host in hosts[:20]:
                assert protocol in host.protocols()

    def test_every_honeypot_kind_deployed(self, population):
        kinds = {host.honeypot_kind for host in population.wild_honeypots}
        assert kinds == {k.name for k in WILD_HONEYPOT_CATALOG}

    def test_addresses_unique(self, population):
        addresses = [host.address for host in population.hosts]
        assert len(addresses) == len(set(addresses))

    def test_deterministic(self):
        config = PopulationConfig(seed=11, scale=16_384, honeypot_scale=512)
        a = PopulationBuilder(config).build()
        b = PopulationBuilder(config).build()
        assert [h.address for h in a.hosts] == [h.address for h in b.hosts]
        assert [h.device_name for h in a.hosts] == [h.device_name for h in b.hosts]

    # Seed 11's single AMQP no-auth broker takes a vulnerable profile at
    # 1:4096 and a weighted pick at 1:16384.
    @pytest.mark.parametrize("scale", [4096, 16_384])
    def test_host_draws_replay_their_own_streams(self, scale):
        # Device host N draws its profile from ``population.host.N`` (a
        # ``choices(k=1)`` pick, after the AMQP vulnerable-profile coin)
        # and its latency sampler, on first read, from that stream's
        # ``.latency`` child; a host pickled before the read still draws it.
        config = PopulationConfig(seed=11, scale=scale, honeypot_scale=512)
        devices = [host for host in PopulationBuilder(config).build().hosts
                   if not host.is_honeypot]
        pickled = pickle.loads(pickle.dumps(devices))
        for index, (host, copy) in enumerate(zip(devices, pickled)):
            stream = RandomStream(11, f"population.host.{index}")
            protocol = next(iter(host.services.values())).protocol
            candidates = profiles_for(protocol)
            expected = None
            if protocol == ProtocolId.AMQP:
                vulnerable = [c for c in candidates if "Vulnerable" in c.name]
                if (host.misconfig == Misconfig.AMQP_NO_AUTH
                        and stream.bernoulli(0.5)):
                    expected = stream.choice(vulnerable)
                candidates = [c for c in candidates if c not in vulnerable]
            if expected is None:
                expected = stream.choices(
                    candidates, [c.weight for c in candidates], k=1
                )[0]
            assert host.device_name == expected.name
            latency = real_device_latency(stream.child("latency"))
            assert host.latency is None and copy.latency is None
            assert host.latency_model() == latency == copy.latency_model()

    def test_seed_changes_world(self):
        a = PopulationBuilder(PopulationConfig(seed=1, scale=16_384)).build()
        b = PopulationBuilder(PopulationConfig(seed=2, scale=16_384)).build()
        assert {h.address for h in a.hosts} != {h.address for h in b.hosts}

    def test_telnet_port_split(self, population):
        telnet_hosts = population.by_protocol[ProtocolId.TELNET]
        alt = sum(1 for host in telnet_hosts if 2323 in host.services)
        fraction = alt / len(telnet_hosts)
        assert 0.05 < fraction < 0.20  # configured 0.12

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            PopulationConfig(scale=0)
        with pytest.raises(ConfigError):
            PopulationConfig(telnet_alt_port_fraction=1.5)

    def test_misconfigured_addresses_view(self, population):
        addresses = population.misconfigured_addresses()
        total = sum(len(hosts) for hosts in population.misconfigured.values())
        assert len(addresses) == total  # one protocol each → no overlap
