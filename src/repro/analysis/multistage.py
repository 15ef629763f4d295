"""Multistage-attack detection — Figure 9.

"We define multistage attacks as attacks in which there is a pattern of
multiple protocols that are being sequentially attacked by the same
adversary. ... we group the attacks from distinct source IP addresses and
check if multiple protocols are targeted", filtering sources "registered to
a domain affiliated to a scanning service" (Section 5.4).  Time between
stages is deliberately ignored, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.attacks.scanning_services import SCANNING_SERVICES
from repro.honeypots.events import EventStore
from repro.net.rdns import ReverseDns
from repro.protocols.base import ProtocolId

__all__ = ["MultistageReport", "detect_multistage"]


def _is_scanning_domain(domain: Optional[str]) -> bool:
    if not domain:
        return False
    return any(
        domain == service.rdns_domain or domain.endswith("." + service.rdns_domain)
        for service in SCANNING_SERVICES
    )


@dataclass
class MultistageReport:
    """Detected multistage attacks and their stage structure."""

    #: source → ordered distinct protocol sequence.
    sequences: Dict[int, Tuple[ProtocolId, ...]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Number of multistage attacks (the paper found 267)."""
        return len(self.sequences)

    def stage_counts(self) -> List[Dict[ProtocolId, int]]:
        """Per-stage protocol histogram (Figure 9's columns)."""
        if not self.sequences:
            return []
        depth = max(len(sequence) for sequence in self.sequences.values())
        stages: List[Dict[ProtocolId, int]] = [{} for _ in range(depth)]
        for sequence in self.sequences.values():
            for stage, protocol in enumerate(sequence):
                stages[stage][protocol] = stages[stage].get(protocol, 0) + 1
        return stages

    def starting_protocols(self) -> Dict[ProtocolId, int]:
        """Histogram of stage-one protocols (Telnet/SSH dominate)."""
        stages = self.stage_counts()
        return stages[0] if stages else {}


def detect_multistage(log: EventStore, rdns: ReverseDns) -> MultistageReport:
    """Find multi-protocol sources, excluding scanning-service domains."""
    report = MultistageReport()
    for source, events in log.multistage_candidates().items():
        if _is_scanning_domain(rdns.lookup(source)):
            continue
        sequence: List[ProtocolId] = []
        for event in events:  # already time-ordered
            if event.protocol not in sequence:
                sequence.append(event.protocol)
        if len(sequence) >= 2:
            report.sequences[source] = tuple(sequence)
    return report
