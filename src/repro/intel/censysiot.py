"""Censys IoT-label model — the §5.3 device-identification extension.

"The Censys database has a labelled dataset of IoT devices and returns an
'iot' tag if the IP address was identified as an IoT device from its
periodic Internet-wide scans."  The paper found 1,671 additional infected
IoT devices this way, mostly cameras, routers and IP phones.

Our store is built from the population's device ground truth — which is
fair: Censys's labels come from its own scans of the same Internet — with
an imperfect coverage rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.internet.population import Population
from repro.net.prng import RandomStream
from repro.scanner.datasets import CENSYS_IOT_TYPES

__all__ = ["CensysIotDB"]


@dataclass
class CensysIotDB:
    """IP → IoT device-type tags, as Censys search would return them."""

    tags: Dict[int, str] = field(default_factory=dict)

    @classmethod
    def build_from(
        cls,
        population: Population,
        seed: int = 7,
        *,
        coverage: float = 0.95,
    ) -> "CensysIotDB":
        """Label IoT-typed population hosts with Censys-style coverage."""
        stream = RandomStream(seed, "intel.censys")
        table: Dict[int, str] = {}
        for host in population.hosts:
            if host.is_honeypot:
                continue
            if host.device_type in CENSYS_IOT_TYPES and stream.bernoulli(coverage):
                table[host.address] = host.device_type
        return cls(tags=table)

    def iot_tag(self, address: int) -> Optional[str]:
        """The device type when Censys tags the address as IoT."""
        return self.tags.get(address)

    def is_iot(self, address: int) -> bool:
        """True when the address carries an ``iot`` tag."""
        return address in self.tags

    def iot_subset(self, addresses: Iterable[int]) -> List[Tuple[int, str]]:
        """(address, device type) for every tagged address in the input."""
        return [
            (address, self.tags[address])
            for address in addresses
            if address in self.tags
        ]
