"""Tests for the §5.1 attack-origin case studies."""

import pytest

from repro.analysis.attack_origins import (
    analyze_tor_sources,
    dos_origin_countries,
    duplicate_dns_sources,
)
from repro.core.taxonomy import AttackType
from repro.honeypots.events import AttackEvent, EventStore
from repro.intel.exonerator import ExoneraTorDB
from repro.net.geo import GeoRegistry
from repro.net.rdns import ReverseDns
from repro.protocols.base import ProtocolId


def _event(source, day=0, protocol=ProtocolId.COAP,
           attack_type=AttackType.DOS_FLOOD):
    return AttackEvent(
        honeypot="HosTaGe", protocol=protocol, source=source, day=day,
        timestamp=day * 86_400.0, attack_type=attack_type,
    )


class TestDosOrigins:
    def test_only_dos_sources_counted(self):
        geo = GeoRegistry(7)
        log = EventStore([
            _event(source=100, attack_type=AttackType.DOS_FLOOD),
            _event(source=200, attack_type=AttackType.REFLECTION),
            _event(source=300, attack_type=AttackType.SCANNING),
        ])
        ranked = dos_origin_countries(log, geo)
        total = sum(count for _, count in ranked)
        assert total == 2  # scanning source excluded

    def test_protocol_filter(self):
        geo = GeoRegistry(7)
        log = EventStore([
            _event(source=100, protocol=ProtocolId.COAP),
            _event(source=200, protocol=ProtocolId.HTTP),
        ])
        coap_only = dos_origin_countries(log, geo, protocol=ProtocolId.COAP)
        assert sum(count for _, count in coap_only) == 1

    def test_study_dos_origins_plausible(self, quick_study):
        """Per §5.1: DoS sources span several countries, US/CN prominent."""
        ranked = dos_origin_countries(
            quick_study.schedule.log, quick_study.geo, top_k=8
        )
        assert len(ranked) >= 3
        names = [name for name, _ in ranked]
        assert "USA" in names or "China" in names


class TestDuplicateDns:
    def test_shared_domain_detected(self):
        rdns = ReverseDns()
        rdns.register(100, "dup.example.net")
        rdns.register(200, "dup.example.net")
        rdns.register(300, "solo.example.net")
        log = EventStore([_event(100), _event(200), _event(300)])
        groups = duplicate_dns_sources(log, rdns)
        assert groups == [{100, 200}]

    def test_requires_both_sources_in_log(self):
        rdns = ReverseDns()
        rdns.register(100, "dup.example.net")
        rdns.register(200, "dup.example.net")
        log = EventStore([_event(100)])  # only one of the pair attacked
        assert duplicate_dns_sources(log, rdns) == []

    def test_study_reflection_infrastructure_found(self, quick_study):
        """The scheduler plants the §5.1.3 duplicate-DNS pair among
        HosTaGe's flood sources; the analysis must find it."""
        groups = duplicate_dns_sources(
            quick_study.schedule.log, quick_study.schedule.rdns
        )
        assert any(len(group) >= 2 for group in groups)
        # The pair points at an Apache default page, as in the paper.
        rdns = quick_study.schedule.rdns
        for group in groups:
            domain = rdns.lookup(next(iter(group)))
            record = rdns.record(domain)
            if record and record.page_kind == "apache-test":
                break
        else:
            pytest.fail("apache-test reflection pair not found")


class TestTorAnalysis:
    def _db(self, relays):
        db = ExoneraTorDB()
        db.relays.update(relays)
        return db

    def test_relay_sources_identified(self):
        log = EventStore([
            _event(100, protocol=ProtocolId.HTTP,
                   attack_type=AttackType.WEB_SCRAPING),
            _event(200, protocol=ProtocolId.HTTP,
                   attack_type=AttackType.WEB_SCRAPING),
        ])
        analysis = analyze_tor_sources(log, self._db({100}))
        assert analysis.relay_sources == {100}
        assert analysis.unique_relays == 1

    def test_recurrence_threshold(self):
        events = [
            _event(100, day=d, protocol=ProtocolId.HTTP,
                   attack_type=AttackType.WEB_SCRAPING)
            for d in range(5)
        ] + [_event(200, day=0, protocol=ProtocolId.HTTP)]
        analysis = analyze_tor_sources(
            EventStore(events), self._db({100, 200}), recurring_days=3
        )
        assert analysis.recurring_relays == {100}

    def test_trend_ratio_increasing(self):
        events = []
        for day in range(10):
            for _ in range(day + 1):  # growing volume
                events.append(_event(100, day=day, protocol=ProtocolId.HTTP))
        analysis = analyze_tor_sources(EventStore(events), self._db({100}))
        assert analysis.trend_ratio() > 1.0

    def test_study_tor_sources_present(self, quick_study):
        """§5.1.6: some HTTP attack sources are Tor relays."""
        analysis = analyze_tor_sources(
            quick_study.schedule.log, quick_study.exonerator
        )
        assert analysis.unique_relays > 0
        # All identified relays are ground-truth Tor exits.
        for address in analysis.relay_sources:
            info = quick_study.schedule.registry.get(address)
            assert info is not None and info.tor_exit
