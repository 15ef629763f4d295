"""Integration tests for the full study pipeline, joins and reports."""

import pytest

from repro import Study, StudyConfig
from repro.analysis.infected import analyze_infected_hosts
from repro.analysis.multistage import detect_multistage
from repro.attacks.plan import (
    PAPER_CENSYS_IOT_SPLIT,
    PAPER_INFECTED_SPLIT,
    PAPER_MULTISTAGE_ATTACKS,
)
from repro.core.report import (
    format_table,
    render_figure2,
    render_figure7,
    render_figure8,
    render_figure9,
    render_intersection,
    render_table4,
    render_table5,
    render_table6,
    render_table7,
    render_table8,
    render_table10,
)
from repro.internet.population import PAPER_EXPOSED_ZMAP
from repro.protocols.base import ProtocolId


class TestPipelinePhases:
    def test_all_phases_timed(self, quick_study):
        assert set(quick_study.phase_seconds) == {
            "world", "scan", "fingerprint", "classify", "attacks",
            "telescope", "intel", "joins",
        }

    def test_table4_ordering_preserved(self, quick_study):
        """Telnet > MQTT > UPnP > CoAP > XMPP > AMQP, as in Table 4."""
        counts = quick_study.zmap_db.counts_by_protocol()
        ordered = sorted(PAPER_EXPOSED_ZMAP, key=PAPER_EXPOSED_ZMAP.get)
        values = [counts.get(protocol, 0) for protocol in ordered]
        assert values == sorted(values)

    def test_sonar_lacks_amqp_xmpp(self, quick_study):
        counts = quick_study.sonar_db.counts_by_protocol()
        assert ProtocolId.AMQP not in counts
        assert ProtocolId.XMPP not in counts

    def test_zmap_exceeds_shodan(self, quick_study):
        zmap = quick_study.zmap_db.counts_by_protocol()
        shodan = quick_study.shodan_db.counts_by_protocol()
        for protocol in PAPER_EXPOSED_ZMAP:
            assert zmap[protocol] >= shodan.get(protocol, 0)

    def test_fingerprints_match_truth(self, quick_study):
        truth = {h.address for h in quick_study.population.wild_honeypots}
        assert quick_study.fingerprints.addresses() == truth

    def test_misconfig_matches_truth(self, quick_study):
        truth = quick_study.population.misconfigured_addresses()
        assert quick_study.misconfig.all_addresses() == truth

    def test_country_report_populated(self, quick_study):
        assert quick_study.countries.total == quick_study.misconfig.total


class TestJoins:
    def test_intersection_split_shape(self, quick_study):
        """§5.3: hp-only/tel-only/both ≈ 1,147/1,274/8,697 at scale."""
        scale = quick_study.config.attacks.attack_scale
        infected = quick_study.infected
        for got, paper in (
            (len(infected.honeypot_only), PAPER_INFECTED_SPLIT[0]),
            (len(infected.telescope_only), PAPER_INFECTED_SPLIT[1]),
            (len(infected.both), PAPER_INFECTED_SPLIT[2]),
        ):
            expected = paper / scale
            assert abs(got - expected) <= max(4, 0.3 * expected)

    def test_intersection_members_are_misconfigured(self, quick_study):
        truth = quick_study.population.misconfigured_addresses()
        infected = quick_study.infected
        members = (infected.honeypot_only | infected.telescope_only
                   | infected.both)
        assert members <= truth

    def test_all_intersected_flagged_by_virustotal(self, quick_study):
        """Paper: all 11,118 were flagged by at least one vendor."""
        assert quick_study.infected.virustotal_flagged_fraction == 1.0

    def test_censys_extension_shape(self, quick_study):
        scale = quick_study.config.attacks.attack_scale
        expected = sum(PAPER_CENSYS_IOT_SPLIT) / scale
        got = quick_study.infected.total_censys_extension
        assert abs(got - expected) <= max(4, 0.4 * expected)

    def test_censys_extension_disjoint_from_intersection(self, quick_study):
        infected = quick_study.infected
        members = (infected.honeypot_only | infected.telescope_only
                   | infected.both)
        assert not members & set(infected.censys_extension)

    def test_censys_types_are_iot(self, quick_study):
        types = {t for t in quick_study.infected.censys_extension.values()}
        assert types  # non-empty
        assert "Server" not in types

    def test_multistage_count_shape(self, quick_study):
        scale = quick_study.config.attacks.attack_scale
        expected = PAPER_MULTISTAGE_ATTACKS / scale
        got = quick_study.multistage.total
        assert abs(got - expected) <= max(2, 0.5 * expected)

    def test_multistage_starts_with_telnet_or_ssh(self, quick_study):
        """Figure 9: the majority of multistage attacks start Telnet/SSH."""
        starts = quick_study.multistage.starting_protocols()
        total = sum(starts.values())
        telnet_ssh = starts.get(ProtocolId.TELNET, 0) + starts.get(
            ProtocolId.SSH, 0)
        assert telnet_ssh / total > 0.5

    def test_domain_analysis_populated(self, quick_study):
        infected = quick_study.infected
        assert infected.registered_domains
        assert infected.domains_with_webpage <= infected.registered_domains
        assert len(infected.malicious_urls) <= len(
            infected.domains_with_webpage)


class TestDeterminism:
    def test_two_runs_identical(self):
        a = Study(StudyConfig.quick(seed=21)).run()
        b = Study(StudyConfig.quick(seed=21)).run()
        assert a.misconfig.total == b.misconfig.total
        assert a.fingerprints.rows() == b.fingerprints.rows()
        assert len(a.schedule.log) == len(b.schedule.log)
        assert (a.schedule.log.count_by_day() == b.schedule.log.count_by_day())
        assert (a.infected.total_infected_misconfigured
                == b.infected.total_infected_misconfigured)

    def test_different_seed_different_world(self):
        a = Study(StudyConfig.quick(seed=21)).run()
        b = Study(StudyConfig.quick(seed=22)).run()
        assert (a.population.hosts[0].address
                != b.population.hosts[0].address)


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["yy", 22]])
        lines = text.splitlines()
        assert len({line.index("b") for line in lines[:1]}) == 1

    def test_all_renderers_produce_text(self, quick_study):
        for renderer in (render_table4, render_table5, render_table6,
                         render_table7, render_table8, render_table10,
                         render_figure2, render_figure7, render_figure8,
                         render_figure9, render_intersection):
            text = renderer(quick_study)
            assert isinstance(text, str) and len(text) > 50

    def test_table5_total_row(self, quick_study):
        text = render_table5(quick_study)
        assert str(quick_study.misconfig.total) in text

    def test_figure8_marks_listings(self, quick_study):
        text = render_figure8(quick_study)
        assert "listed by" in text
        assert "Shodan" in text
