"""Tests for the listing-impact analysis and the scan-rate model."""

import pytest

from repro.analysis.listing_impact import (
    ListingEffect,
    analyze_listing_impact,
)
from repro.core.taxonomy import AttackType
from repro.honeypots.deployment import build_deployment
from repro.honeypots.events import AttackEvent, EventStore
from repro.net.errors import ConfigError
from repro.protocols.base import ProtocolId
from repro.scanner.rate import ROUTABLE_IPV4_ADDRESSES, ScanRateModel
from repro.scanner.zmap import SCAN_START_DAY


class TestListingEffect:
    def test_amplification(self):
        effect = ListingEffect("Cowrie", "Shodan", 6, rate_before=10,
                               rate_after=15)
        assert effect.amplification == pytest.approx(1.5)

    def test_zero_before_rate(self):
        effect = ListingEffect("Cowrie", "Shodan", 6, 0, 5)
        assert effect.amplification == float("inf")
        quiet = ListingEffect("Cowrie", "Shodan", 6, 0, 0)
        assert quiet.amplification == 1.0


class TestListingImpactAnalysis:
    def _synthetic_log(self, deployment, before_rate, after_rate,
                       listing_day=10):
        log = EventStore()
        cowrie = deployment.get("Cowrie")
        cowrie.listing_days = {"Shodan": listing_day}
        source = 0
        for day in range(30):
            rate = before_rate if day < listing_day else after_rate
            for _ in range(rate):
                source += 1
                log.add(AttackEvent(
                    honeypot="Cowrie", protocol=ProtocolId.SSH,
                    source=source, day=day, timestamp=day * 86_400.0,
                    attack_type=AttackType.BRUTE_FORCE,
                ))
        return log

    def test_amplification_measured(self):
        deployment = build_deployment()
        log = self._synthetic_log(deployment, before_rate=5, after_rate=15)
        report = analyze_listing_impact(log, deployment)
        effects = report.for_honeypot("Cowrie")
        assert len(effects) == 1
        assert effects[0].amplification == pytest.approx(3.0)
        assert report.fraction_amplified() == 1.0

    def test_spike_days_excluded(self):
        deployment = build_deployment()
        log = self._synthetic_log(deployment, before_rate=5, after_rate=5)
        # A huge flood on an excluded day must not inflate the after-rate.
        for index in range(500):
            log.add(AttackEvent(
                honeypot="Cowrie", protocol=ProtocolId.SSH,
                source=10_000 + index, day=23, timestamp=23 * 86_400.0,
                attack_type=AttackType.DOS_FLOOD,
            ))
        report = analyze_listing_impact(log, deployment)
        assert report.for_honeypot("Cowrie")[0].amplification == (
            pytest.approx(1.0))

    def test_listing_on_day_zero_skipped(self):
        deployment = build_deployment()
        log = self._synthetic_log(deployment, 5, 5, listing_day=0)
        report = analyze_listing_impact(log, deployment)
        assert report.for_honeypot("Cowrie") == []

    def test_study_shows_listing_effect(self, quick_study):
        """§5.2's claim over the generated month: most listings are
        followed by higher attack rates."""
        report = analyze_listing_impact(
            quick_study.schedule.log, quick_study.deployment,
            days=quick_study.config.attacks.days,
        )
        assert report.effects  # every honeypot got listed
        assert report.fraction_amplified() > 0.8
        assert report.mean_amplification() > 1.1


class TestScanRateModel:
    def test_probe_counts_respect_ports(self):
        model = ScanRateModel()
        assert model.probes_for(ProtocolId.TELNET) == (
            2 * ROUTABLE_IPV4_ADDRESSES)  # ports 23 + 2323
        assert model.probes_for(ProtocolId.COAP) == ROUTABLE_IPV4_ADDRESSES

    def test_udp_has_no_grab_stage(self):
        model = ScanRateModel()
        assert model.plan_protocol(ProtocolId.COAP).grab_seconds == 0.0
        assert model.plan_protocol(ProtocolId.MQTT).grab_seconds > 0.0

    def test_paper_calendar_feasible(self):
        """At ~300 kpps the six-protocol campaign fits the paper's March
        1-5 window (finishing within the week)."""
        model = ScanRateModel(probe_rate=300_000)
        assert model.campaign_days() < 7.0

    def test_slow_scanner_misses_deadline(self):
        model = ScanRateModel(probe_rate=10_000)
        assert model.campaign_days() > 7.0

    def test_plans_ordered_by_calendar(self):
        plans = ScanRateModel().plan_campaign()
        days = [plan.start_day for plan in plans]
        assert days == sorted(days)
        assert plans[0].protocol == ProtocolId.COAP  # March 1 per Table 9

    def test_required_rate_inversion(self):
        model = ScanRateModel()
        rate = model.required_rate_for_deadline(5.0)
        # Feeding the required rate back should meet the sweep deadline.
        fast = ScanRateModel(probe_rate=rate)
        total_sweep_days = sum(
            fast.plan_protocol(protocol).sweep_seconds / 86_400
            for protocol in SCAN_START_DAY
        )
        assert total_sweep_days <= 5.0 + 1e-6

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            ScanRateModel(probe_rate=0)
        with pytest.raises(ConfigError):
            ScanRateModel(responsive_fraction=2.0)
        with pytest.raises(ConfigError):
            ScanRateModel().required_rate_for_deadline(0)
