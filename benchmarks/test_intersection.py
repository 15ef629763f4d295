"""Section 5.3 — the 11,118 misconfigured devices that attack back.

Regenerates the full cross-experiment join (scan ∩ honeypots ∩ telescope,
VirusTotal validation, Censys-IoT extension, reverse-DNS domain analysis)
and compares every published number.
"""

from repro.analysis.infected import analyze_infected_hosts
from repro.attacks.plan import (
    PAPER_CENSYS_IOT_SPLIT,
    PAPER_DOMAINS_WITH_WEBPAGE,
    PAPER_INFECTED_SPLIT,
    PAPER_MALICIOUS_URLS,
    PAPER_REGISTERED_DOMAINS,
)
from repro.core.report import render_intersection

from conftest import compare


def test_intersection_infected_hosts(benchmark, study):
    report = benchmark.pedantic(
        analyze_infected_hosts,
        args=(
            study.misconfig.all_addresses(),
            study.schedule.log,
            study.telescope,
            study.virustotal,
        ),
        kwargs={"censys": study.censys_iot, "rdns": study.schedule.rdns},
        rounds=1, iterations=1,
    )
    scale = study.config.attacks.attack_scale

    rows = [
        ("total intersected", 11_118,
         report.total_infected_misconfigured * scale, f"x{scale}"),
        ("honeypots only", PAPER_INFECTED_SPLIT[0],
         len(report.honeypot_only) * scale, f"x{scale}"),
        ("telescope only", PAPER_INFECTED_SPLIT[1],
         len(report.telescope_only) * scale, f"x{scale}"),
        ("both", PAPER_INFECTED_SPLIT[2], len(report.both) * scale,
         f"x{scale}"),
        ("VT-flagged fraction", "100%",
         f"{100 * report.virustotal_flagged_fraction:.0f}%"),
        ("Censys IoT extension", 1_671,
         report.total_censys_extension * scale, f"x{scale}"),
        ("registered domains", PAPER_REGISTERED_DOMAINS,
         len(report.registered_domains) * scale, f"x{scale}"),
        ("domains with webpage", PAPER_DOMAINS_WITH_WEBPAGE,
         len(report.domains_with_webpage) * scale, f"x{scale}"),
        ("malicious URLs", PAPER_MALICIOUS_URLS,
         len(report.malicious_urls) * scale, f"x{scale}"),
    ]
    compare("Section 5.3: infected-host intersection", rows)
    print()
    print(render_intersection(study))

    # The headline total within 15% after rescaling.
    got = report.total_infected_misconfigured * scale
    assert abs(got - 11_118) <= 0.15 * 11_118
    # Every intersected device was VirusTotal-flagged (paper: all).
    assert report.virustotal_flagged_fraction == 1.0
    # "Both" dominates the split, as in the paper's footnote.
    assert len(report.both) > len(report.honeypot_only)
    assert len(report.both) > len(report.telescope_only)
    # Censys surfaces cameras/routers, not generic servers.
    top_types = dict(report.top_censys_device_types())
    assert top_types
    assert "Server" not in top_types
