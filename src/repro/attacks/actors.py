"""Attack-source registry: who attacks, from where, and why it matters.

The study's punchline analyses are all *joins over source addresses*:

* Table 7 splits honeypot sources into scanning-service / malicious /
  unknown;
* Figure 5 compares the scanning-service verdicts with GreyNoise;
* Figure 6 checks sources against VirusTotal;
* Section 5.3 intersects attack sources with the misconfigured-device scan
  results (11,118 devices) and with Censys IoT labels (1,671 more), and
  reverse-resolves the rest to registered domains;
* the telescope tables reuse the same population of scanners and bots.

:class:`ActorRegistry` is the ground-truth ledger those joins run against.
Each :class:`SourceInfo` records the address, its traffic class, the actor
behind it, and the flags that drive the downstream joins.  Intel stores
(:mod:`repro.intel`) are *populated from* this ledger with deliberate
imperfection, so the pipeline's measured numbers can disagree with ground
truth the way GreyNoise disagreed with the paper's classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.taxonomy import TrafficClass
from repro.net.ipv4 import int_to_ip

__all__ = ["SourceInfo", "ActorRegistry"]


@dataclass
class SourceInfo:
    """One attacking/scanning source address and its ground truth."""

    address: int
    traffic_class: TrafficClass
    actor: str = ""                 # "shodan", "mirai", "multistage-3", ...
    service_name: str = ""          # scanning-service name when applicable
    rdns_domain: str = ""
    #: the source is one of the misconfigured devices found by the scan.
    infected_misconfigured: bool = False
    #: the source is an IoT device Censys labels (but our scan's misconfig
    #: set does not contain).
    censys_iot: bool = False
    censys_device_type: str = ""
    tor_exit: bool = False
    #: where this source shows up.
    visits_honeypots: bool = False
    visits_telescope: bool = False
    #: malware families this source distributed.
    malware_families: Set[str] = field(default_factory=set)

    @property
    def address_text(self) -> str:
        """Dotted-quad address."""
        return int_to_ip(self.address)


class ActorRegistry:
    """Ledger of every source the attack/telescope layers emit from."""

    def __init__(self) -> None:
        self._sources: Dict[int, SourceInfo] = {}

    def register(self, info: SourceInfo) -> SourceInfo:
        """Add or merge a source (flags are OR-merged on repeat)."""
        existing = self._sources.get(info.address)
        if existing is None:
            self._sources[info.address] = info
            return info
        existing.visits_honeypots |= info.visits_honeypots
        existing.visits_telescope |= info.visits_telescope
        existing.infected_misconfigured |= info.infected_misconfigured
        existing.censys_iot |= info.censys_iot
        existing.tor_exit |= info.tor_exit
        existing.malware_families |= info.malware_families
        if not existing.rdns_domain:
            existing.rdns_domain = info.rdns_domain
        return existing

    def get(self, address: int) -> Optional[SourceInfo]:
        """Source info for an address."""
        return self._sources.get(address)

    def __len__(self) -> int:
        return len(self._sources)

    def __iter__(self):
        return iter(self._sources.values())

    def all_addresses(self) -> Set[int]:
        """Every registered source address."""
        return set(self._sources)

    def by_class(self, traffic_class: TrafficClass) -> List[SourceInfo]:
        """Sources of one ground-truth class."""
        return [
            info for info in self._sources.values()
            if info.traffic_class == traffic_class
        ]

    def infected_sources(self) -> List[SourceInfo]:
        """Sources that are misconfigured devices (the 11,118 analysis)."""
        return [
            info for info in self._sources.values() if info.infected_misconfigured
        ]
