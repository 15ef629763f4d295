"""Tests for the online multistage monitor (HosTaGe's live service)."""

import pytest

from repro.analysis.multistage import detect_multistage
from repro.core.taxonomy import AttackType
from repro.honeypots.events import AttackEvent, EventStore
from repro.honeypots.multistage_monitor import MultistageMonitor
from repro.protocols.base import ProtocolId


def _event(source, protocol, honeypot="HosTaGe", timestamp=0.0):
    return AttackEvent(
        honeypot=honeypot, protocol=protocol, source=source,
        day=int(timestamp // 86_400), timestamp=timestamp,
        attack_type=AttackType.SCANNING,
    )


class TestMonitor:
    def test_alert_on_second_protocol(self):
        monitor = MultistageMonitor()
        assert monitor.observe(_event(5, ProtocolId.TELNET, timestamp=1)) is None
        alert = monitor.observe(_event(5, ProtocolId.SMB, timestamp=2))
        assert alert is not None
        assert alert.chain == (ProtocolId.TELNET, ProtocolId.SMB)
        assert alert.timestamp == 2

    def test_single_alert_per_source(self):
        monitor = MultistageMonitor()
        monitor.observe(_event(5, ProtocolId.TELNET, timestamp=1))
        monitor.observe(_event(5, ProtocolId.SMB, timestamp=2))
        assert monitor.observe(_event(5, ProtocolId.S7, timestamp=3)) is None
        assert len(monitor.alerts) == 1
        # But the chain keeps growing for later inspection.
        assert monitor.chain_of(5) == (
            ProtocolId.TELNET, ProtocolId.SMB, ProtocolId.S7)

    def test_same_protocol_never_alerts(self):
        monitor = MultistageMonitor()
        for index in range(5):
            assert monitor.observe(
                _event(5, ProtocolId.TELNET, timestamp=index)
            ) is None
        assert not monitor.alerts

    def test_ignored_sources_silent(self):
        monitor = MultistageMonitor(ignore_sources={5})
        monitor.observe(_event(5, ProtocolId.TELNET))
        monitor.observe(_event(5, ProtocolId.SMB))
        assert not monitor.alerts

    def test_callback_invoked(self):
        received = []
        monitor = MultistageMonitor(on_alert=received.append)
        monitor.observe(_event(5, ProtocolId.TELNET, timestamp=1))
        monitor.observe(_event(5, ProtocolId.SMB, timestamp=2))
        assert len(received) == 1
        assert received[0].source == 5

    def test_cross_honeypot_chains_tracked(self):
        monitor = MultistageMonitor()
        monitor.observe(_event(5, ProtocolId.TELNET, honeypot="Cowrie",
                               timestamp=1))
        alert = monitor.observe(_event(5, ProtocolId.SMB, honeypot="Dionaea",
                                       timestamp=2))
        assert alert.honeypots == ("Cowrie", "Dionaea")

    def test_replay_orders_by_time(self):
        log = EventStore([
            _event(5, ProtocolId.SMB, timestamp=10),
            _event(5, ProtocolId.TELNET, timestamp=1),  # earlier
        ])
        monitor = MultistageMonitor()
        alerts = monitor.replay(log)
        assert alerts[0].chain == (ProtocolId.TELNET, ProtocolId.SMB)


class TestAgainstOfflineDetector:
    def test_online_matches_offline_on_study(self, quick_study):
        """The live monitor and the offline §5.4 analysis agree on the
        study's month (given the same scanning-source filter)."""
        offline = quick_study.multistage
        scanning = {
            info.address
            for info in quick_study.schedule.registry
            if info.service_name
        }
        monitor = MultistageMonitor(ignore_sources=scanning)
        monitor.replay(quick_study.schedule.log)
        assert monitor.alerted_sources == set(offline.sequences)

    def test_online_chains_match_offline_sequences(self, quick_study):
        scanning = {
            info.address
            for info in quick_study.schedule.registry
            if info.service_name
        }
        monitor = MultistageMonitor(ignore_sources=scanning)
        monitor.replay(quick_study.schedule.log)
        for source, sequence in quick_study.multistage.sequences.items():
            assert monitor.chain_of(source) == sequence
