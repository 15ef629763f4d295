"""Listing-impact analysis — Section 5.2 quantified.

"We observed an increase in the number of attacks on the honeypots after
their listing on scanning-services like Shodan, BinaryEdge and ZoomEye ...
We observe an upward trend in the number of attacks after being listed."

The paper shows this as Figure 8's annotated timeline; this module turns it
into numbers: for each honeypot and each listing event, the mean daily
attack rate before vs after the listing (excluding the DoS spike days so a
flood doesn't masquerade as a listing effect), and an aggregate
amplification factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.honeypots.base import HoneypotDeployment
from repro.honeypots.events import EventStore

__all__ = ["ListingEffect", "ListingImpactReport", "analyze_listing_impact"]


@dataclass
class ListingEffect:
    """Before/after rates around one listing event."""

    honeypot: str
    service: str
    listing_day: int
    rate_before: float  # mean events/day before the listing
    rate_after: float   # mean events/day after (spike days excluded)

    @property
    def amplification(self) -> float:
        """after/before rate ratio (inf when the before-rate is zero)."""
        if self.rate_before == 0:
            return float("inf") if self.rate_after > 0 else 1.0
        return self.rate_after / self.rate_before


@dataclass
class ListingImpactReport:
    """All listing effects plus aggregates."""

    effects: List[ListingEffect] = field(default_factory=list)

    def for_honeypot(self, honeypot: str) -> List[ListingEffect]:
        """Effects observed on one honeypot."""
        return [effect for effect in self.effects
                if effect.honeypot == honeypot]

    def mean_amplification(self) -> float:
        """Mean after/before ratio across finite effects."""
        finite = [effect.amplification for effect in self.effects
                  if effect.amplification != float("inf")]
        return sum(finite) / len(finite) if finite else 0.0

    def fraction_amplified(self) -> float:
        """Share of listing events followed by a rate increase."""
        if not self.effects:
            return 0.0
        increased = sum(
            1 for effect in self.effects if effect.amplification > 1.0
        )
        return increased / len(self.effects)


def analyze_listing_impact(
    log: EventStore,
    deployment: HoneypotDeployment,
    *,
    days: int = 30,
    exclude_days: Iterable[int] = (23, 25),
) -> ListingImpactReport:
    """Compute before/after attack rates around every listing event.

    ``exclude_days`` removes the annotated DoS spikes from the after-window
    so the listing effect isn't conflated with flood events (the paper
    plots both on Figure 8 but discusses them separately).
    """
    excluded = set(exclude_days)
    report = ListingImpactReport()
    for honeypot in deployment.honeypots:
        daily: Dict[int, int] = {}
        for event in log.by_honeypot(honeypot.name):
            daily[event.day] = daily.get(event.day, 0) + 1
        for service, listing_day in sorted(
            honeypot.listing_days.items(), key=lambda item: item[1]
        ):
            before_days = [day for day in range(listing_day)
                           if day not in excluded]
            after_days = [day for day in range(listing_day, days)
                          if day not in excluded]
            if not before_days or not after_days:
                continue
            rate_before = sum(daily.get(day, 0) for day in before_days) / len(
                before_days)
            rate_after = sum(daily.get(day, 0) for day in after_days) / len(
                after_days)
            report.effects.append(ListingEffect(
                honeypot=honeypot.name,
                service=service,
                listing_day=listing_day,
                rate_before=rate_before,
                rate_after=rate_after,
            ))
    return report
