"""Attacks-from-infected-hosts analysis — Section 5.3's intersection.

The paper's headline cross-experiment result: of the 1.8 M misconfigured
devices found by the scan, **11,118** also appear as *attack sources*
against the honeypots and/or the network telescope (1,147 honeypots only,
1,274 telescope only, 8,697 both), every one flagged by at least one
VirusTotal vendor.  Censys's IoT labels identify **1,671** further infected
IoT devices among the remaining sources, and reverse DNS on the rest finds
797 registered domains (427 with webpages, 346 flagged malicious).

This module computes exactly that join, consuming only pipeline outputs:
the misconfiguration report's address set, the honeypot event log, the
telescope capture, and the intel stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.honeypots.events import EventStore
from repro.intel.censysiot import CensysIotDB
from repro.intel.virustotal import VirusTotalDB
from repro.net.rdns import ReverseDns
from repro.telescope.telescope import TelescopeCapture

__all__ = ["InfectedHostsReport", "analyze_infected_hosts"]


@dataclass
class InfectedHostsReport:
    """The §5.3 numbers as pipeline-measured values."""

    honeypot_only: Set[int] = field(default_factory=set)
    telescope_only: Set[int] = field(default_factory=set)
    both: Set[int] = field(default_factory=set)
    #: fraction of intersected devices VirusTotal flags (paper: all).
    virustotal_flagged_fraction: float = 0.0
    #: Censys-IoT extension: additional devices and their types.
    censys_extension: Dict[int, str] = field(default_factory=dict)
    censys_honeypot_only: int = 0
    censys_telescope_only: int = 0
    censys_both: int = 0
    #: reverse-DNS analysis of the remaining sources.
    registered_domains: Set[str] = field(default_factory=set)
    domains_with_webpage: Set[str] = field(default_factory=set)
    malicious_urls: Set[str] = field(default_factory=set)

    @property
    def total_infected_misconfigured(self) -> int:
        """The 11,118 analogue."""
        return len(self.honeypot_only) + len(self.telescope_only) + len(self.both)

    @property
    def total_censys_extension(self) -> int:
        """The 1,671 analogue."""
        return len(self.censys_extension)

    def top_censys_device_types(self, k: int = 3) -> List[Tuple[str, int]]:
        """Most common device types in the extension (paper: cameras,
        routers, IP phones)."""
        counts: Dict[str, int] = {}
        for device_type in self.censys_extension.values():
            counts[device_type] = counts.get(device_type, 0) + 1
        return sorted(counts.items(), key=lambda item: -item[1])[:k]


def analyze_infected_hosts(
    misconfigured_addresses: Set[int],
    log: EventStore,
    telescope: TelescopeCapture,
    virustotal: VirusTotalDB,
    censys: Optional[CensysIotDB] = None,
    rdns: Optional[ReverseDns] = None,
) -> InfectedHostsReport:
    """Intersect the misconfigured-device set with the attack sources."""
    honeypot_sources = log.unique_sources()
    telescope_sources = telescope.unique_sources()
    report = InfectedHostsReport()

    infected_hp = misconfigured_addresses & honeypot_sources
    infected_tel = misconfigured_addresses & telescope_sources
    report.both = infected_hp & infected_tel
    report.honeypot_only = infected_hp - report.both
    report.telescope_only = infected_tel - report.both

    intersected = report.honeypot_only | report.telescope_only | report.both
    if intersected:
        flagged = sum(
            1 for address in intersected if virustotal.is_malicious_ip(address)
        )
        report.virustotal_flagged_fraction = flagged / len(intersected)

    remaining = (honeypot_sources | telescope_sources) - intersected
    if censys is not None:
        for address, device_type in censys.iot_subset(remaining):
            report.censys_extension[address] = device_type
            in_hp = address in honeypot_sources
            in_tel = address in telescope_sources
            if in_hp and in_tel:
                report.censys_both += 1
            elif in_hp:
                report.censys_honeypot_only += 1
            else:
                report.censys_telescope_only += 1
        remaining = remaining - set(report.censys_extension)

    if rdns is not None:
        from repro.attacks.scanning_services import SCANNING_SERVICES

        scanning_suffixes = tuple(
            "." + service.rdns_domain for service in SCANNING_SERVICES
        )
        for address in remaining:
            domain = rdns.lookup(address)
            if domain is None:
                continue
            # Scanning services are benign infrastructure, not infected
            # hosts; §5.3's domain analysis targets the suspicious rest.
            if domain.endswith(scanning_suffixes):
                continue
            record = rdns.record(domain)
            if record is None:
                continue
            report.registered_domains.add(domain)
            if record.has_webpage:
                report.domains_with_webpage.add(domain)
            url = f"http://{domain}/"
            if virustotal.is_malicious_url(url):
                report.malicious_urls.add(url)
    return report
