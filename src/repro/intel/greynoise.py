"""GreyNoise model — the Figure 5 cross-validation partner.

GreyNoise classifies sources it has observed on *its own* sensor fleet into
benign / malicious / unknown.  The paper's key finding in Figure 5 is the
gap: 2,023 addresses the paper identified as scanning services were *not*
identified by GreyNoise, with the gap widest for AMQP, Telnet and MQTT
(attributed to Europe-focused cyber-risk-rating platforms GreyNoise's
sensors do not see).

We model the database as built from the simulation's ground truth with a
deliberate per-service visibility limit: regional/boutique services have a
high miss probability, the global ones a low one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.attacks.actors import ActorRegistry
from repro.core.taxonomy import TrafficClass
from repro.net.prng import RandomStream

__all__ = ["GreyNoiseDB", "REGIONAL_SERVICES"]

#: Services whose sensors GreyNoise plausibly never sees (Europe-focused
#: risk raters, §4.3.3) — their sources are usually misses.
REGIONAL_SERVICES = frozenset(
    {"Bitsight", "Alpha Strike Labs", "Sharashka", "RWTH Aachen",
     "CriminalIP", "Quadmetrics"}
)

#: GreyNoise verdict labels.
BENIGN = "benign"
MALICIOUS = "malicious"
UNKNOWN = "unknown"


@dataclass
class GreyNoiseDB:
    """Query-only classification store."""

    classifications: Dict[int, str] = field(default_factory=dict)

    @classmethod
    def build_from(
        cls,
        registry: ActorRegistry,
        seed: int = 7,
        *,
        regional_miss_rate: float = 0.85,
        global_miss_rate: float = 0.06,
        malicious_known_rate: float = 0.80,
    ) -> "GreyNoiseDB":
        """Populate the database from the actor ledger, with miss rates."""
        stream = RandomStream(seed, "intel.greynoise")
        table: Dict[int, str] = {}
        for info in registry:
            if info.traffic_class == TrafficClass.SCANNING_SERVICE:
                miss_rate = (
                    regional_miss_rate
                    if info.service_name in REGIONAL_SERVICES
                    else global_miss_rate
                )
                if not stream.bernoulli(miss_rate):
                    table[info.address] = BENIGN
            elif info.traffic_class == TrafficClass.MALICIOUS:
                if stream.bernoulli(malicious_known_rate):
                    table[info.address] = MALICIOUS
            else:
                if stream.bernoulli(0.3):
                    table[info.address] = UNKNOWN
        return cls(classifications=table)

    def classification(self, address: int) -> Optional[str]:
        """GreyNoise verdict, or None when the address is unseen."""
        return self.classifications.get(address)

    def count_benign(self, addresses: Iterable[int]) -> int:
        """How many of ``addresses`` GreyNoise recognises as benign."""
        return sum(
            1 for address in addresses
            if self.classifications.get(address) == BENIGN
        )
