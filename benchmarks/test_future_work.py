"""Benches for the §6 future-work systems: extended protocol scans,
multi-vantage scanning, and RSDoS backscatter detection.

These have no published paper numbers to match — they regenerate the
*extension* experiments DESIGN.md calls out and assert their qualitative
claims (single-vantage undercount, RSDoS recovery, extension
classification fidelity).
"""

import pytest

from repro.analysis.misconfig import classify_database
from repro.internet.population import (
    EXTENSION_MISCONFIG_COUNTS,
    PopulationBuilder,
    PopulationConfig,
)
from repro.net.geo import GeoRegistry
from repro.protocols.base import ProtocolId
from repro.scanner.vantage import DEFAULT_VANTAGES, DistributedScanner
from repro.scanner.zmap import InternetScanner, ScanConfig
from repro.telescope.rsdos import detect_rsdos

from conftest import compare

EXTENDED = (ProtocolId.TR069, ProtocolId.DDS, ProtocolId.OPCUA)


def test_extended_protocol_scan(benchmark):
    """TR-069/DDS/OPC UA scan + classification at 1:2048."""
    population = PopulationBuilder(PopulationConfig(
        seed=7, scale=2048, honeypot_scale=256, include_extended=True,
    )).build()
    scanner = InternetScanner(
        population.internet, ScanConfig(protocols=EXTENDED)
    )
    database = benchmark.pedantic(scanner.run_campaign, rounds=1, iterations=1)
    report = classify_database(database)

    rows = []
    for label, estimate in EXTENSION_MISCONFIG_COUNTS.items():
        truth = len(population.misconfigured[label])
        rows.append((str(label), f"~{estimate:,} (est.)",
                     f"{report.count(label)} (truth {truth})"))
    compare("Extension: TR-069/DDS/OPC UA misconfigurations", rows)

    for label in EXTENSION_MISCONFIG_COUNTS:
        assert report.count(label) == len(population.misconfigured[label])


def test_multi_vantage_scan(benchmark):
    """Wan et al.: distributed vantages recover filtered hosts."""
    population = PopulationBuilder(PopulationConfig(
        seed=7, scale=4096, honeypot_scale=256,
    )).build()
    scanner = DistributedScanner(
        population.internet, GeoRegistry(7),
        protocols=(ProtocolId.TELNET, ProtocolId.MQTT),
        seed=7,
    )
    comparison = benchmark.pedantic(scanner.run, rounds=1, iterations=1)

    union = len(comparison.union_hosts())
    rows = [("union of 3 vantages", "(reference)", union)]
    for vantage in DEFAULT_VANTAGES:
        seen = len(comparison.hosts_seen(vantage.name))
        miss = comparison.single_vantage_miss_rate(vantage.name)
        rows.append((f"single vantage {vantage.name}", "undercounts",
                     f"{seen} ({100 * miss:.1f}% missed)"))
    compare("Extension: geographically distributed scanning", rows)

    for vantage in DEFAULT_VANTAGES:
        miss = comparison.single_vantage_miss_rate(vantage.name)
        assert 0.0 < miss < 0.3  # real but bounded undercount


def test_rsdos_detection(benchmark, study):
    """Backscatter detection over the study's telescope capture."""
    capture = study.telescope
    detected = benchmark.pedantic(
        detect_rsdos,
        args=(list(capture.writer.iter_rows()),),
        kwargs={"packet_scale": capture.config.packet_scale},
        rounds=1, iterations=1,
    )
    truth = capture.rsdos_truth
    truth_keys = {(attack.victim, attack.day) for attack in truth}
    detected_keys = {(attack.victim, attack.day) for attack in detected}
    recovered = len(truth_keys & detected_keys)

    compare("Extension: RSDoS attack metadata", [
        ("spoofed attacks in month", len(truth), "(ground truth)"),
        ("detected from backscatter", "(most)", len(detected)),
        ("correctly attributed", "(most)", recovered),
        ("false victims", 0, len(detected_keys - truth_keys)),
    ])

    assert recovered >= 0.7 * len(truth_keys)
    assert not detected_keys - truth_keys
    # Volume estimates land within an order of magnitude.
    by_key = {(a.victim, a.day): a for a in truth}
    for attack in detected:
        true_attack = by_key[(attack.victim, attack.day)]
        ratio = attack.estimated_attack_packets / true_attack.total_packets
        assert 0.1 < ratio < 10.0
