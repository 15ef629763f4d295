"""Open-dataset providers: Project Sonar, Shodan, Censys.

The paper cross-checks its ZMap results against Project Sonar and Shodan
(Table 4) and later uses Censys's IoT labels to find additional infected
devices (Section 5.3).  Each provider here is an *independent scanning
service* with its own coverage model, probing the same simulated Internet:

* **Project Sonar** — wide but port-limited coverage: it scans Telnet only
  on port 23 (the paper names this as a reason its Telnet count trails the
  dual-port ZMap scan) and publishes no AMQP/XMPP datasets at all.
* **Shodan** — much lower per-protocol coverage for the high-volume
  protocols (it samples and rate-limits), higher for niche ones.
* **Censys** — used for its device tags rather than coverage; it labels
  records of IoT device types with an ``iot`` tag.

Coverage rates are fitted from Table 4 (provider count / ZMap count); each
provider Bernoulli-samples hosts with its per-protocol rate, using its own
deterministic stream, so overlaps across providers are realistic (neither
identical nor disjoint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.tasks import TaskDeadline, TaskJournal
from repro.internet.fabric import SimulatedInternet
from repro.net.prng import RandomStream
from repro.protocols.base import ProtocolId
from repro.scanner.records import ScanDatabase
from repro.scanner.zmap import InternetScanner, ScanConfig

__all__ = [
    "SONAR_COVERAGE",
    "SHODAN_COVERAGE",
    "DatasetProvider",
    "project_sonar",
    "shodan",
    "censys",
    "CENSYS_IOT_TYPES",
]

#: Fitted from Table 4: provider unique hosts / ZMap unique hosts.
SONAR_COVERAGE: Dict[ProtocolId, float] = {
    ProtocolId.COAP: 438_098 / 618_650,      # 0.708
    ProtocolId.UPNP: 395_331 / 1_381_940,    # 0.286
    ProtocolId.MQTT: 3_921_585 / 4_842_465,  # 0.810
    # Sonar scans Telnet on port 23 only; with ~88% of listeners on 23, a
    # per-host rate of 0.961 on that subset reproduces Table 4's 6.0M/7.1M.
    ProtocolId.TELNET: 6_004_956 / (7_096_465 * 0.88),  # 0.961 of port-23 hosts
}

SHODAN_COVERAGE: Dict[ProtocolId, float] = {
    ProtocolId.AMQP: 18_701 / 34_542,        # 0.541
    ProtocolId.XMPP: 315_861 / 423_867,      # 0.745
    ProtocolId.COAP: 590_740 / 618_650,      # 0.955
    ProtocolId.UPNP: 433_571 / 1_381_940,    # 0.314
    ProtocolId.MQTT: 162_216 / 4_842_465,    # 0.034
    ProtocolId.TELNET: 188_291 / 7_096_465,  # 0.027
}

#: Device types Censys tags as "iot" in its labelled dataset.
CENSYS_IOT_TYPES = frozenset(
    {"Camera", "Router", "DSL Modem", "Smart Home", "TV Receiver",
     "Access Point", "NAS", "Smart Speaker", "3D Printer", "HVAC",
     "Remote Display Unit", "IoT Node", "IP Phone"}
)


@dataclass
class DatasetProvider:
    """One scanning service publishing an open dataset."""

    name: str
    coverage: Dict[ProtocolId, float]
    seed: int
    scanner_address: str
    #: Ports the provider scans per protocol; None = library defaults.
    port_restrictions: Optional[Dict[ProtocolId, Tuple[int, ...]]] = None
    #: Transient-failure retry budget for the provider's own sweep —
    #: the study propagates its ``--retries`` here so injected faults
    #: are ridden out in every vantage point, not just our own scan.
    retries: int = 0

    def snapshot(
        self,
        internet: SimulatedInternet,
        journal: Optional[TaskJournal] = None,
        deadline: Optional[TaskDeadline] = None,
    ) -> ScanDatabase:
        """Scan the world with this provider's coverage and publish.

        One campaign sweeps every covered protocol.  Blocklist admission
        is decided once per host; each protocol's coverage is one batch
        of uniform draws over the hosts in world order, bit-identical to
        a ``bernoulli`` draw per host.  The rows come out grouped by
        protocol in coverage order, each group in canonical order.  An
        optional ``journal`` records (and on resume replays) the sweep's
        tasks, and ``deadline`` supervises them, as for our own scan.
        """
        scanner = InternetScanner(
            internet,
            ScanConfig(
                scanner_address=self.scanner_address,
                protocols=tuple(self.coverage),
                seed=self.seed,
                retries=self.retries,
            ),
        )
        addresses = [host.address for host in internet.hosts()]
        blocks = scanner.blocklist.blocks
        unblocked = np.array(
            [not blocks(address) for address in addresses], dtype=bool
        )
        world = np.array(addresses, dtype=np.int64)
        admitted: Dict[ProtocolId, List[int]] = {}
        for protocol, rate in self.coverage.items():
            stream = RandomStream(self.seed, f"dataset.{self.name}.{protocol}")
            covered = stream.uniform_array(len(addresses)) < min(1.0, rate)
            admitted[protocol] = np.sort(world[covered & unblocked]).tolist()
        sweeps = scanner.sweep(admitted, journal=journal, deadline=deadline)
        restrictions = self.port_restrictions or {}
        rows: List[tuple] = []
        for protocol, protocol_rows in sweeps.items():
            protocol_rows.sort(key=ScanDatabase.canonical_key)
            ports = restrictions.get(protocol)
            if ports is not None:
                protocol_rows = [
                    row for row in protocol_rows if row[1] in ports
                ]
            rows.extend(protocol_rows)
        database = ScanDatabase()
        database.append_batch(rows)
        database.set_source(self.name)
        return database


def project_sonar(seed: int = 7) -> DatasetProvider:
    """Rapid7 Project Sonar: no AMQP/XMPP, Telnet on port 23 only."""
    return DatasetProvider(
        name="sonar",
        coverage=dict(SONAR_COVERAGE),
        seed=seed + 101,
        scanner_address="71.6.233.1",
        port_restrictions={ProtocolId.TELNET: (23,)},
    )


def shodan(seed: int = 7) -> DatasetProvider:
    """Shodan: all six protocols, heavily sampled on Telnet/MQTT."""
    return DatasetProvider(
        name="shodan",
        coverage=dict(SHODAN_COVERAGE),
        seed=seed + 202,
        scanner_address="66.240.236.119",
    )


def censys(seed: int = 7) -> DatasetProvider:
    """Censys: broad two-thirds coverage; used mainly for IoT labels."""
    coverage = {protocol: 0.66 for protocol in SHODAN_COVERAGE}
    return DatasetProvider(
        name="censys",
        coverage=coverage,
        seed=seed + 303,
        scanner_address="74.120.14.33",
    )
