"""Text rendering of the paper's tables and figures from study results.

Each ``render_*`` function prints one artifact in the same layout the paper
uses, with the scaled measured values.  ``benchmarks/test_claims.py``
prints them beside each experiment's claims (``pytest -s``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.study import StudyResults
from repro.core.taxonomy import AttackType
from repro.honeypots.deployment import HONEYPOT_NAMES
from repro.protocols.base import ProtocolId
from repro.telescope.telescope import PAPER_TELESCOPE

__all__ = [
    "format_table",
    "render_case_studies",
    "render_table4",
    "render_table5",
    "render_table6",
    "render_table7",
    "render_table8",
    "render_table10",
    "render_figure2",
    "render_figure7",
    "render_figure8",
    "render_figure9",
    "render_intersection",
]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Monospace table rendering used by every report."""
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[index]), *(len(row[index]) for row in text_rows))
        if text_rows
        else len(headers[index])
        for index in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in text_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def render_table4(results: StudyResults) -> str:
    """Exposed systems per protocol and source."""
    counts = results.table4_counts()
    order = [ProtocolId.AMQP, ProtocolId.XMPP, ProtocolId.COAP,
             ProtocolId.UPNP, ProtocolId.MQTT, ProtocolId.TELNET]
    rows = []
    for protocol in order:
        rows.append([
            str(protocol),
            counts.get("zmap", {}).get(protocol, 0),
            counts.get("sonar", {}).get(protocol, "NA"),
            counts.get("shodan", {}).get(protocol, 0),
        ])
    totals = [
        sum(v for v in counts.get(name, {}).values())
        for name in ("zmap", "sonar", "shodan")
    ]
    rows.append(["Total", *totals])
    return format_table(
        ["Protocol", "ZMap Scan", "Project Sonar", "Shodan"], rows,
        title="Table 4: exposed systems by protocol and source (scaled)",
    )


def render_table5(results: StudyResults) -> str:
    """Misconfigured devices per protocol/vulnerability."""
    assert results.misconfig is not None
    rows = list(results.misconfig.rows())
    rows.append(["", "Total", results.misconfig.total])
    return format_table(
        ["Protocol", "Vulnerability", "#Devices found"], rows,
        title="Table 5: misconfigured devices per protocol (scaled)",
    )


def render_table6(results: StudyResults) -> str:
    """Detected honeypots by product."""
    assert results.fingerprints is not None
    rows = [list(row) for row in results.fingerprints.rows()]
    rows.append(["Total", results.fingerprints.total])
    return format_table(
        ["Honeypot", "#Detected Instances"], rows,
        title="Table 6: honeypots detected via banner signatures (scaled)",
    )


def render_table7(results: StudyResults) -> str:
    """Attack events by honeypot and protocol, with source splits."""
    assert results.schedule is not None
    counts = results.schedule.log.count_by_honeypot_protocol()
    rows = []
    for honeypot in HONEYPOT_NAMES:
        protocols = sorted(
            (protocol, count)
            for (name, protocol), count in counts.items()
            if name == honeypot
        )
        scanning, malicious, unknown = results.honeypot_source_split(honeypot)
        first = True
        for protocol, count in protocols:
            rows.append([
                honeypot if first else "",
                protocol,
                count,
                scanning if first else "",
                malicious if first else "",
                unknown if first else "",
            ])
            first = False
    rows.append([
        "Total", "", len(results.schedule.log),
        sum(results.honeypot_source_split(h)[0] for h in HONEYPOT_NAMES),
        sum(results.honeypot_source_split(h)[1] for h in HONEYPOT_NAMES),
        sum(results.honeypot_source_split(h)[2] for h in HONEYPOT_NAMES),
    ])
    return format_table(
        ["Honeypot", "Protocol", "#Events", "Scanning*", "Malicious*",
         "Unknown*"],
        rows,
        title="Table 7: attack events by honeypot (scaled; * unique sources)",
    )


def render_table8(results: StudyResults) -> str:
    """Telescope suspicious-traffic classification."""
    assert results.telescope is not None
    capture = results.telescope
    rows = []
    for protocol in PAPER_TELESCOPE:
        scanning = len(capture.scanning_sources_by_protocol.get(protocol, set()))
        rows.append([
            str(protocol),
            f"{capture.daily_average_rescaled(protocol):,.0f}",
            len(capture.unique_sources(protocol)),
            scanning,
            len(capture.suspicious_sources(protocol)),
        ])
    return format_table(
        ["Protocol", "Daily Avg Count (rescaled)", "Unique IP",
         "Scanning-service", "Unknown/Suspicious"],
        rows,
        title="Table 8: telescope traffic classification (sources scaled)",
    )


def render_table10(results: StudyResults) -> str:
    """Misconfigured devices by country."""
    assert results.countries is not None and results.geo is not None
    rows = [
        [name, count, f"{percent:.1f}%"]
        for name, count, percent in results.countries.rows(results.geo)
    ]
    rows.append(["Total", results.countries.total, ""])
    return format_table(
        ["Country", "Count", "Share"], rows,
        title="Table 10: misconfigured devices by country (scaled)",
    )


def render_figure2(results: StudyResults, top_k: int = 5) -> str:
    """Top device types by protocol (%)."""
    assert results.device_types is not None
    rows = []
    for protocol in (ProtocolId.TELNET, ProtocolId.UPNP, ProtocolId.MQTT,
                     ProtocolId.COAP):
        percentages = results.device_types.percentages(protocol)
        top = sorted(percentages.items(), key=lambda item: -item[1])[:top_k]
        for device_type, percent in top:
            rows.append([str(protocol), device_type, f"{percent:.1f}%"])
    return format_table(
        ["Protocol", "Device type", "Share"], rows,
        title="Figure 2: top IoT device types by protocol",
    )


def render_figure7(results: StudyResults) -> str:
    """Attack trends by type and protocol (%)."""
    assert results.schedule is not None
    log = results.schedule.log
    protocols = sorted(log.count_by_protocol())
    rows = []
    for name in protocols:
        protocol = ProtocolId(name)
        counts = log.count_by_type(protocol)
        total = sum(counts.values()) or 1
        top = sorted(counts.items(), key=lambda item: -item[1])[:4]
        summary = ", ".join(
            f"{attack_type}={100.0 * count / total:.0f}%"
            for attack_type, count in top
        )
        rows.append([name, total, summary])
    return format_table(
        ["Protocol", "#Events", "Top attack types"], rows,
        title="Figure 7: attack trends by type and protocol",
    )


def render_figure8(results: StudyResults) -> str:
    """Attacks per day with listing markers."""
    assert results.schedule is not None and results.deployment is not None
    by_day = results.schedule.log.count_by_day()
    days = range(results.config.attacks.days)
    peak = max(by_day.values()) if by_day else 1
    listings: Dict[int, List[str]] = {}
    for honeypot in results.deployment.honeypots:
        for service, day in honeypot.listing_days.items():
            listings.setdefault(day, [])
            if service not in listings[day]:
                listings[day].append(service)
    lines = ["Figure 8: total attacks by day (scaled)"]
    for day in days:
        count = by_day.get(day, 0)
        bar = "#" * max(1, int(40 * count / peak)) if count else ""
        note = ""
        if day in listings:
            note = "  <- listed by " + ", ".join(listings[day])
        lines.append(f"day {day + 1:>2}  {count:>6}  {bar}{note}")
    return "\n".join(lines)


def render_figure9(results: StudyResults) -> str:
    """Multistage attacks: stage-wise protocol counts."""
    assert results.multistage is not None
    stages = results.multistage.stage_counts()
    rows = []
    for index, histogram in enumerate(stages):
        for protocol, count in sorted(histogram.items(), key=lambda i: -i[1]):
            rows.append([f"step {index + 1}", str(protocol), count])
    rows.append(["total", "multistage attacks", results.multistage.total])
    return format_table(
        ["Stage", "Protocol", "#Attacks"], rows,
        title="Figure 9: multistage attacks detected on honeypots (scaled)",
    )


def render_case_studies(results: StudyResults) -> str:
    """The §5.1 source-tracing case studies: DoS origins, duplicate-DNS
    reflection infrastructure, Tor-relay HTTP sources."""
    from repro.analysis.attack_origins import (
        analyze_tor_sources,
        dos_origin_countries,
        duplicate_dns_sources,
    )

    assert results.schedule is not None and results.geo is not None
    log = results.schedule.log
    rows = []
    for name, count in dos_origin_countries(log, results.geo, top_k=5):
        rows.append(["DoS origin country", name, count])
    groups = duplicate_dns_sources(log, results.schedule.rdns)
    rows.append(["duplicate-DNS source groups", "(reflection infra)",
                 len(groups)])
    if results.exonerator is not None:
        tor = analyze_tor_sources(log, results.exonerator)
        rows.append(["Tor-relay HTTP sources", "(§5.1.6)",
                     tor.unique_relays])
        rows.append(["  recurring relays", "daily pattern",
                     len(tor.recurring_relays)])
    return format_table(
        ["Case study", "Detail", "Value"], rows,
        title="Section 5.1 case studies (scaled)",
    )


def render_intersection(results: StudyResults) -> str:
    """Section 5.3's infected-host numbers."""
    assert results.infected is not None
    infected = results.infected
    rows = [
        ["misconfigured devices attacking (total)",
         infected.total_infected_misconfigured],
        ["  honeypots only", len(infected.honeypot_only)],
        ["  telescope only", len(infected.telescope_only)],
        ["  both", len(infected.both)],
        ["VirusTotal-flagged fraction",
         f"{infected.virustotal_flagged_fraction:.2f}"],
        ["Censys IoT extension (total)", infected.total_censys_extension],
        ["  honeypots only", infected.censys_honeypot_only],
        ["  telescope only", infected.censys_telescope_only],
        ["  both", infected.censys_both],
        ["registered domains", len(infected.registered_domains)],
        ["  with webpage", len(infected.domains_with_webpage)],
        ["  malicious URLs", len(infected.malicious_urls)],
    ]
    return format_table(
        ["Quantity", "Value"], rows,
        title="Section 5.3: attacks from infected hosts (scaled)",
    )
