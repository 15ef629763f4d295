#!/usr/bin/env python3
"""Scenario: darknet analysis with the /8 network telescope.

Reproduces the paper's Section 3.4/4.3.2 pipeline in isolation: generate
the month of FlowTuple captures, classify sources against known scanning
services and VirusTotal, and inspect the record format — including writing
and re-reading the day files like the real CAIDA workflow.

Run:  python examples/telescope_analysis.py
"""

from repro.attacks.actors import ActorRegistry, SourceInfo
from repro.attacks.malware import MalwareCorpus
from repro.core.taxonomy import TrafficClass
from repro.intel.virustotal import VirusTotalDB
from repro.net.asn import AsnRegistry
from repro.net.geo import GeoRegistry
from repro.telescope.flowtuple import decode_flowtuple, encode_flowtuple
from repro.telescope.telescope import (
    PAPER_TELESCOPE,
    NetworkTelescope,
    TelescopeConfig,
)


def build_actor_population(seed: int) -> ActorRegistry:
    """A small stand-alone attacker population (normally the attack
    scheduler provides this; here we want the telescope in isolation)."""
    registry = ActorRegistry()
    for index in range(200):
        registry.register(SourceInfo(
            address=0x0B000000 + index,
            traffic_class=(TrafficClass.SCANNING_SERVICE if index < 40
                           else TrafficClass.MALICIOUS),
            service_name="Shodan" if index < 40 else "",
            visits_telescope=True,
            infected_misconfigured=index >= 160,
        ))
    return registry


def main() -> None:
    seed = 7
    registry = build_actor_population(seed)
    geo, asn = GeoRegistry(seed), AsnRegistry(seed)

    print("Capturing one month of /8 darknet traffic ...")
    telescope = NetworkTelescope(
        registry, geo, asn,
        TelescopeConfig(seed=seed, telnet_source_scale=16_384,
                        source_scale=128, packet_scale=65_536),
    )
    capture = telescope.capture_month()

    print("\nPer-protocol view (Table 8 shape):")
    header = f"{'protocol':<8} {'daily avg (rescaled)':>22} {'unique IPs':>11} {'scanning':>9} {'suspicious':>11}"
    print(header)
    for protocol in PAPER_TELESCOPE:
        scanning = len(capture.scanning_sources_by_protocol[protocol])
        print(f"{str(protocol):<8} "
              f"{capture.daily_average_rescaled(protocol):>22,.0f} "
              f"{len(capture.unique_sources(protocol)):>11} "
              f"{scanning:>9} "
              f"{len(capture.suspicious_sources(protocol)):>11}")

    print("\nFlowTuple day files (first three records of day 0):")
    for line in list(capture.writer.lines_for_day(0))[:3]:
        print(f"  {line}")
        record = decode_flowtuple(line)
        assert encode_flowtuple(record) == line  # lossless round trip

    print("\nClassifying suspicious sources with VirusTotal ...")
    virustotal = VirusTotalDB.build_from(registry, MalwareCorpus(seed),
                                         seed=seed)
    for protocol in PAPER_TELESCOPE:
        suspicious = capture.suspicious_sources(protocol)
        fraction = virustotal.malicious_fraction(suspicious)
        print(f"  {str(protocol):<8} {100 * fraction:>5.1f}% of "
              f"{len(suspicious)} suspicious sources flagged")

    masscan = sum(
        record.packet_count for record in capture.writer.iter_rows()
        if record.is_masscan
    )
    total = sum(record.packet_count for record in capture.writer.iter_rows())
    print(f"\nMasscan-fingerprinted share of packets: "
          f"{100 * masscan / total:.1f}%")


if __name__ == "__main__":
    main()
