"""Tests for the attack layer: credentials, malware, payloads, actors,
the full scheduler."""

import pytest

from repro.attacks.actors import ActorRegistry, SourceInfo
from repro.attacks.credentials import (
    SSH_CREDENTIALS,
    TELNET_CREDENTIALS,
    sample_credentials,
)
from repro.attacks.malware import FAMILY_BY_PROTOCOL, KNOWN_SAMPLES, MalwareCorpus
from repro.attacks.payloads import build_payloads
from repro.attacks.plan import (
    MALICIOUS_TYPE_MIX,
    PAPER_HONEYPOT_EVENTS,
    PAPER_HONEYPOT_SOURCES,
)
from repro.attacks.scanning_services import SCANNING_SERVICES, service_by_name
from repro.attacks.schedule import AttackScheduleConfig
from repro.core.taxonomy import AttackType, TrafficClass
from repro.net.errors import ConfigError
from repro.net.prng import RandomStream
from repro.protocols.base import ProtocolId


class TestCredentials:
    def test_table12_anchors(self):
        pairs = {(c.username, c.password) for c in TELNET_CREDENTIALS}
        assert ("admin", "admin") in pairs
        assert ("root", "xc3511") in pairs  # Mirai's famous default
        ssh_pairs = {(c.username, c.password) for c in SSH_CREDENTIALS}
        assert ("zyfwp", "PrOw!aN_fXp") in ssh_pairs  # Zyxel backdoor

    def test_weighted_sampling_favours_admin_admin(self):
        stream = RandomStream(3, "creds")
        picks = sample_credentials(ProtocolId.TELNET, stream, 500)
        top = max(set(picks), key=picks.count)
        assert top == ("admin", "admin")

    def test_unknown_protocol_falls_back_to_telnet_corpus(self):
        stream = RandomStream(3, "creds2")
        picks = sample_credentials(ProtocolId.HTTP, stream, 10)
        corpus = {(c.username, c.password) for c in TELNET_CREDENTIALS}
        assert all(pick in corpus for pick in picks)


class TestMalwareCorpus:
    def test_known_hashes_are_sha256(self):
        for sample in KNOWN_SAMPLES:
            assert len(sample.sha256) == 64
            int(sample.sha256, 16)  # hex

    def test_paper_table13_first_hash_present(self):
        hashes = {s.sha256 for s in KNOWN_SAMPLES}
        assert ("27870ada242e0f7fd5b1e7fc799f503004b3fd2c0f971784208cae31880"
                "b9950") in hashes

    def test_family_protocol_attribution(self):
        assert "Mirai" in FAMILY_BY_PROTOCOL[ProtocolId.TELNET]
        assert "WannaCry" in FAMILY_BY_PROTOCOL[ProtocolId.SMB]
        assert "Mozi" in FAMILY_BY_PROTOCOL[ProtocolId.FTP]

    def test_sample_for_respects_protocol(self):
        corpus = MalwareCorpus(5)
        stream = RandomStream(5, "m")
        for _ in range(20):
            sample = corpus.sample_for(ProtocolId.SMB, stream)
            assert sample.family in FAMILY_BY_PROTOCOL[ProtocolId.SMB]

    def test_variants_unique_and_resolvable(self):
        corpus = MalwareCorpus(5)
        a = corpus.new_variant("Mirai")
        b = corpus.new_variant("Mirai")
        assert a.sha256 != b.sha256
        assert corpus.family_of(a.sha256) == "Mirai"
        assert corpus.family_of("00" * 32) == ""

    def test_telnet_mix_dominated_by_mirai(self):
        corpus = MalwareCorpus(5)
        stream = RandomStream(5, "mix")
        families = [
            corpus.sample_for(ProtocolId.TELNET, stream).family
            for _ in range(300)
        ]
        assert families.count("Mirai") > 200  # 113:10 weighting


class TestScanningServices:
    def test_catalog_contents(self):
        names = {service.name for service in SCANNING_SERVICES}
        for expected in ("Shodan", "Censys", "Stretchoid", "BinaryEdge",
                         "ZoomEye", "RWTH Aachen"):
            assert expected in names

    def test_search_engines_have_listing_days(self):
        for name in ("Shodan", "BinaryEdge", "ZoomEye", "Censys"):
            assert service_by_name(name).listing_day is not None

    def test_unknown_service_raises(self):
        with pytest.raises(KeyError):
            service_by_name("NotAService")


class TestPayloads:
    def _build(self, intent, protocol, seed=1):
        return build_payloads(
            intent, protocol, RandomStream(seed, "p"), MalwareCorpus(seed)
        )

    def test_every_intent_builds_for_every_protocol(self):
        for intent in AttackType:
            for protocol in ProtocolId:
                payloads, _ = self._build(intent, protocol)
                assert isinstance(payloads, list)

    def test_malware_drop_returns_hash(self):
        payloads, sha256 = self._build(AttackType.MALWARE_DROP,
                                       ProtocolId.TELNET)
        assert len(sha256) == 64
        assert any(b"wget" in p for p in payloads)

    def test_dictionary_longer_than_brute(self):
        brute, _ = self._build(AttackType.BRUTE_FORCE, ProtocolId.SSH)
        dictionary, _ = self._build(AttackType.DICTIONARY, ProtocolId.SSH)
        assert len(dictionary) > len(brute)

    def test_flood_is_large(self):
        payloads, _ = self._build(AttackType.DOS_FLOOD, ProtocolId.COAP)
        assert len(payloads) >= 60

    def test_scraping_distinct_paths(self):
        payloads, _ = self._build(AttackType.WEB_SCRAPING, ProtocolId.HTTP)
        paths = {p.split(b" ")[1] for p in payloads}
        assert len(paths) >= 5


class TestActorRegistry:
    def test_register_and_merge(self):
        registry = ActorRegistry()
        registry.register(SourceInfo(address=1,
                                     traffic_class=TrafficClass.MALICIOUS,
                                     visits_honeypots=True))
        merged = registry.register(
            SourceInfo(address=1, traffic_class=TrafficClass.MALICIOUS,
                       visits_telescope=True, infected_misconfigured=True)
        )
        assert merged.visits_honeypots and merged.visits_telescope
        assert merged.infected_misconfigured
        assert len(registry) == 1

    def test_class_views(self):
        registry = ActorRegistry()
        registry.register(SourceInfo(address=1,
                                     traffic_class=TrafficClass.MALICIOUS))
        registry.register(
            SourceInfo(address=2, traffic_class=TrafficClass.SCANNING_SERVICE)
        )
        assert len(registry.by_class(TrafficClass.MALICIOUS)) == 1
        assert registry.all_addresses() == {1, 2}


class TestScheduleConfigData:
    def test_paper_event_totals(self):
        # Published table rows sum to ~200k (the paper prints 200,209; the
        # row sum is 200,239 — we carry the rows).
        total = sum(
            count for (name, protocol), count in PAPER_HONEYPOT_EVENTS.items()
            if protocol != ProtocolId.MODBUS
        )
        assert total == 200_239

    def test_paper_source_totals(self):
        scanning = sum(c[0] for c in PAPER_HONEYPOT_SOURCES.values())
        malicious = sum(c[1] for c in PAPER_HONEYPOT_SOURCES.values())
        unknown = sum(c[2] for c in PAPER_HONEYPOT_SOURCES.values())
        assert (scanning, malicious, unknown) == (10_696, 69_690, 9_779)

    def test_type_mix_covers_all_lab_protocols(self):
        lab_protocols = {protocol for _, protocol in PAPER_HONEYPOT_EVENTS}
        assert lab_protocols <= set(MALICIOUS_TYPE_MIX)

    def test_upot_is_dos_heavy(self):
        """§5.1.3: >80% of U-Pot traffic is DoS-related."""
        mix = dict(MALICIOUS_TYPE_MIX[ProtocolId.UPNP])
        dos_share = (mix[AttackType.DOS_FLOOD] + mix[AttackType.REFLECTION])
        assert dos_share / sum(mix.values()) >= 0.8

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            AttackScheduleConfig(attack_scale=0)
        with pytest.raises(ConfigError):
            AttackScheduleConfig(scanning_share=0)
        with pytest.raises(ConfigError):
            AttackScheduleConfig(days=0)


class TestScheduledMonth:
    """Properties of the generated month (uses the session-wide study)."""

    def test_event_totals_track_table7(self, quick_study):
        schedule = quick_study.schedule
        scale = quick_study.config.attacks.attack_scale
        counts = schedule.log.count_by_honeypot_protocol()
        for (name, protocol), paper in PAPER_HONEYPOT_EVENTS.items():
            got = counts.get((name, str(protocol)), 0)
            expected = paper / scale
            assert abs(got - expected) <= max(4, 0.15 * expected), (
                name, protocol)

    def test_listing_effect_trend(self, quick_study):
        """Figure 8: later weeks see more attacks than the first week."""
        by_day = quick_study.schedule.log.count_by_day()
        week1 = sum(by_day.get(d, 0) for d in range(7))
        week4 = sum(by_day.get(d, 0) for d in range(21, 28))
        assert week4 > 1.2 * week1

    def test_dos_spike_days(self, quick_study):
        """Figure 8 annotates major DoS events on days 24 and 26."""
        by_day = quick_study.schedule.log.count_by_day()
        import statistics

        normal_days = [by_day.get(d, 0) for d in range(30)
                       if d not in (23, 25)]
        spike = min(by_day.get(23, 0), by_day.get(25, 0))
        assert spike > statistics.mean(normal_days)

    def test_multistage_truth_recovered(self, quick_study):
        detected = quick_study.multistage
        truth = quick_study.schedule.multistage_sources
        assert set(detected.sequences) == truth

    def test_malware_hashes_captured(self, quick_study):
        hashes = quick_study.schedule.log.malware_hashes()
        assert hashes
        corpus = quick_study.schedule.corpus
        assert all(corpus.family_of(h) for h in hashes)

    def test_source_splits_shape(self, quick_study):
        scale = quick_study.config.attacks.attack_scale
        for name, (scanning, malicious, unknown) in PAPER_HONEYPOT_SOURCES.items():
            got = quick_study.honeypot_source_split(name)
            for index, paper in enumerate((scanning, malicious, unknown)):
                expected = paper / scale
                assert abs(got[index] - expected) <= max(6, 0.35 * expected), (
                    name, index)

    def test_infected_sources_are_misconfigured_devices(self, quick_study):
        population = quick_study.population
        truth = population.misconfigured_addresses()
        for info in quick_study.schedule.registry.infected_sources():
            assert info.address in truth
