"""Tests for the future-work systems: distributed vantages, recurrence
classification, RSDoS backscatter detection."""

import pytest

from repro.analysis.recurrence import RecurrenceClassifier, RecurrencePattern
from repro.core.taxonomy import AttackType, TrafficClass
from repro.honeypots.events import AttackEvent, EventStore
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.net.geo import GeoRegistry
from repro.protocols.base import ProtocolId
from repro.scanner.vantage import (
    DEFAULT_VANTAGES,
    DistributedScanner,
    Vantage,
)
from repro.telescope.flowtuple import FlowTupleWriter
from repro.telescope.rsdos import (
    BackscatterGenerator,
    SpoofedDosAttack,
    detect_rsdos,
)


class TestDistributedScanning:
    @pytest.fixture(scope="class")
    def comparison(self):
        population = PopulationBuilder(
            PopulationConfig(seed=7, scale=8192, honeypot_scale=512)
        ).build()
        scanner = DistributedScanner(
            population.internet, GeoRegistry(7),
            protocols=(ProtocolId.TELNET, ProtocolId.MQTT),
            seed=7,
        )
        return scanner.run(), population

    def test_every_vantage_produces_results(self, comparison):
        result, _ = comparison
        for vantage in DEFAULT_VANTAGES:
            assert result.hosts_seen(vantage.name)

    def test_union_recovers_more_than_any_single_vantage(self, comparison):
        """Wan et al.'s headline: single-origin scans undercount."""
        result, _ = comparison
        union = result.union_hosts()
        for vantage in DEFAULT_VANTAGES:
            assert len(result.hosts_seen(vantage.name)) < len(union)
            assert result.single_vantage_miss_rate(vantage.name) > 0.0

    def test_exclusive_hosts_exist(self, comparison):
        """Some hosts are visible from exactly one vantage."""
        result, _ = comparison
        exclusive_total = sum(
            len(result.exclusive_to(vantage.name))
            for vantage in DEFAULT_VANTAGES
        )
        assert exclusive_total > 0

    def test_visibility_deterministic(self):
        population = PopulationBuilder(
            PopulationConfig(seed=7, scale=16_384)
        ).build()
        scanner = DistributedScanner(
            population.internet, GeoRegistry(7),
            protocols=(ProtocolId.TELNET,), seed=7,
        )
        a = scanner.run()
        b = scanner.run()
        for vantage in DEFAULT_VANTAGES:
            assert a.hosts_seen(vantage.name) == b.hosts_seen(vantage.name)

    def test_records_carry_vantage_source(self, comparison):
        result, _ = comparison
        database = result.per_vantage["us-east"]
        assert all(record.source == "zmap@us-east" for record in database)

    def test_near_hosts_better_visible(self):
        """Hosts in the vantage's own country filter it less."""
        population = PopulationBuilder(
            PopulationConfig(seed=7, scale=4096)
        ).build()
        geo = GeoRegistry(7)
        vantage = Vantage("us-only", "23.128.10.5", "US",
                          far_filter_rate=0.5, near_filter_rate=0.0)
        scanner = DistributedScanner(
            population.internet, geo, [vantage],
            protocols=(ProtocolId.TELNET,), seed=7,
        )
        result = scanner.run()
        seen = result.hosts_seen("us-only")
        telnet_hosts = [h.address for h in
                        population.by_protocol[ProtocolId.TELNET]]
        us_hosts = [a for a in telnet_hosts if geo.country_of(a) == "US"]
        far_hosts = [a for a in telnet_hosts if geo.country_of(a) != "US"]
        us_coverage = len(seen & set(us_hosts)) / len(us_hosts)
        far_coverage = len(seen & set(far_hosts)) / len(far_hosts)
        assert us_coverage > 0.95
        assert far_coverage < 0.65


class TestRecurrenceClassifier:
    def _log(self, visits):
        """visits: {source: [days]} → EventStore."""
        log = EventStore()
        for source, days in visits.items():
            for day in days:
                log.add(AttackEvent(
                    honeypot="Cowrie", protocol=ProtocolId.SSH,
                    source=source, day=day, timestamp=day * 86_400.0,
                    attack_type=AttackType.SCANNING,
                ))
        return log

    def test_pattern_metrics(self):
        pattern = RecurrencePattern(source=1, active_days={0, 5, 10},
                                    total_events=6)
        assert pattern.n_active_days == 3
        assert pattern.span_days == 11
        assert pattern.regularity == pytest.approx(3 / 11)

    def test_recurring_scanner_detected(self):
        log = self._log({42: list(range(0, 30, 3))})  # every 3rd day
        classifier = RecurrenceClassifier()
        recurring, one_time = classifier.classify(log)
        assert recurring == {42}
        assert not one_time

    def test_one_shot_not_recurring(self):
        log = self._log({42: [7]})
        recurring, one_time = RecurrenceClassifier().classify(log)
        assert one_time == {42}

    def test_burst_not_recurring(self):
        """A three-day attack burst is not periodic scanning."""
        log = self._log({42: [10, 11, 12, 13]})
        recurring, _ = RecurrenceClassifier().classify(log)
        assert not recurring

    def test_scores_against_study_truth(self, quick_study):
        log = quick_study.schedule.log
        truth = {
            info.address
            for info in quick_study.schedule.registry.by_class(
                TrafficClass.SCANNING_SERVICE)
        }
        scores = RecurrenceClassifier().score_against(log, truth)
        # The behavioural classifier is noisy at the quick scale (few
        # events per source, and heavy-hitter bots recur too) — exactly
        # why the paper leans on rDNS.  It must still beat base rate:
        # scanning sources are ~18% of log sources, so precision ~0.5 is
        # a 2.5x lift.
        base_rate = len(truth & log.unique_sources()) / len(
            log.unique_sources())
        assert scores["precision"] > 2 * base_rate
        assert scores["recall"] > 0.25


class TestRsdos:
    def test_backscatter_lands_in_dark_space(self):
        writer = FlowTupleWriter()
        attack = SpoofedDosAttack(victim=0x01020304, victim_port=80, day=3,
                                  duration_seconds=600,
                                  packets_per_second=100_000)
        emitted = BackscatterGenerator(seed=5).emit(attack, writer)
        records = list(writer.iter_rows())
        assert emitted > 0
        assert all(record.src_ip == 0x01020304 for record in records)
        assert all(record.tcp_flags == 0x12 for record in records)  # SYN|ACK
        from repro.net.ipv4 import CidrBlock

        dark = CidrBlock.parse("44.0.0.0/8")
        assert all(record.dst_ip in dark for record in records)

    def test_detection_recovers_attack(self):
        writer = FlowTupleWriter()
        attack = SpoofedDosAttack(victim=0x01020304, victim_port=80, day=3,
                                  duration_seconds=3_600,
                                  packets_per_second=200_000)
        BackscatterGenerator(seed=5).emit(attack, writer)
        detected = detect_rsdos(writer.iter_rows())
        assert len(detected) == 1
        assert detected[0].victim == attack.victim
        assert detected[0].day == 3
        # The volume estimate lands within 2x of the true attack volume
        # (quantisation aside).
        ratio = detected[0].estimated_attack_packets / attack.total_packets
        assert 0.3 < ratio < 3.0

    def test_small_backscatter_ignored(self):
        """A victim answering a handful of dark addresses isn't an attack."""
        writer = FlowTupleWriter()
        attack = SpoofedDosAttack(victim=0x01020304, victim_port=80, day=0,
                                  duration_seconds=1, packets_per_second=10)
        BackscatterGenerator(seed=5).emit(attack, writer)
        assert detect_rsdos(writer.iter_rows(), min_dark_targets=64) == []

    def test_scan_syns_not_mistaken_for_backscatter(self):
        """Ordinary scan probes (pure SYN) never trigger the detector."""
        from repro.net.packet import TransportProtocol
        from repro.telescope.flowtuple import FlowTupleRecord

        writer = FlowTupleWriter()
        for index in range(100):
            writer.add(FlowTupleRecord(
                time=index, src_ip=7, dst_ip=0x2C000000 + index,
                src_port=44_000, dst_port=23,
                protocol=TransportProtocol.TCP, tcp_flags=0x02,
            ))
        assert detect_rsdos(writer.iter_rows()) == []

    def test_telescope_capture_includes_rsdos(self, quick_study):
        capture = quick_study.telescope
        assert capture.rsdos_truth
        detected = detect_rsdos(
            capture.writer.iter_rows(),
            packet_scale=capture.config.packet_scale,
        )
        truth_victims = {(a.victim, a.day) for a in capture.rsdos_truth}
        detected_victims = {(a.victim, a.day) for a in detected}
        # Most true attacks are recovered; no phantom victims appear.
        recovered = len(truth_victims & detected_victims)
        assert recovered >= 0.7 * len(truth_victims)
        assert detected_victims <= truth_victims
