"""Attack-origin case studies — the §5.1 source-tracing analyses.

Three analyses the paper runs on attack sources, reproduced over the event
log and the supporting registries:

* **DoS origin countries** (§5.1.3, §5.1.6): "the majority of the DoS
  attacks came from China, Russia, Israel, USA, and Italy" (HTTP) and
  "other sources of the DoS attacks appeared to originate from Italy,
  Taiwan, and Brazil" (CoAP) — a geo rollup of flood/reflection sources;
* **duplicate DNS entries** (§5.1.3): two CoAP flood sources resolved to
  the same domain, "which leads to the possibility of reflection or
  amplification attacks" — detected via the reverse-DNS store;
* **Tor-relay HTTP sources** (§5.1.6): 151 unique IPs behind the HTTP
  scraping traffic came from Tor relays, with "a daily recurring pattern".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.columns import ColumnStore
from repro.core.operator import OperatorBase
from repro.core.taxonomy import AttackType
from repro.intel.exonerator import ExoneraTorDB
from repro.net.geo import GeoRegistry
from repro.net.rdns import ReverseDns
from repro.protocols.base import ProtocolId

__all__ = [
    "dos_origin_countries",
    "duplicate_dns_sources",
    "TorAnalysis",
    "AttackOriginsOperator",
    "analyze_tor_sources",
]

_DOS_TYPES = (AttackType.DOS_FLOOD, AttackType.REFLECTION)


def duplicate_dns_sources(
    log: ColumnStore,
    rdns: ReverseDns,
    protocol: Optional[ProtocolId] = None,
) -> List[Set[int]]:
    """Groups of attack sources sharing one reverse-DNS domain.

    The paper's §5.1.3 tell for reflection infrastructure: distinct flood
    sources with duplicate DNS entries.
    """
    attack_sources = log.unique_sources(protocol=protocol)
    groups = []
    for group in rdns.duplicate_entry_addresses():
        overlap = group & attack_sources
        if len(overlap) >= 2:
            groups.append(overlap)
    return groups


@dataclass
class TorAnalysis:
    """The §5.1.6 Tor findings."""

    relay_sources: Set[int] = field(default_factory=set)
    #: sources active on ≥ threshold days (the "daily recurring pattern").
    recurring_relays: Set[int] = field(default_factory=set)
    #: events per day from relay sources (to check the increasing trend).
    daily_events: Dict[int, int] = field(default_factory=dict)

    @property
    def unique_relays(self) -> int:
        """Distinct Tor-relay sources (the paper's 151)."""
        return len(self.relay_sources)

    def trend_ratio(self) -> float:
        """Last-half vs first-half event volume (>1 = increasing)."""
        if not self.daily_events:
            return 0.0
        days = sorted(self.daily_events)
        midpoint = days[len(days) // 2]
        first = sum(count for day, count in self.daily_events.items()
                    if day < midpoint)
        second = sum(count for day, count in self.daily_events.items()
                     if day >= midpoint)
        return second / first if first else float(second > 0)


class AttackOriginsOperator(OperatorBase):
    """The §5.1 source tracing as an online fold: DoS origin countries
    and Tor-relay sources.

    The snapshot holds :meth:`dos_origins` and :meth:`tor_analysis` under
    ``"dos_origins"`` and ``"tor"``.  ExoneraTor verdicts are memoized
    per source, so a log costs one lookup per distinct source.  ``geo``
    may be ``None`` when only :meth:`tor_analysis` is read, and
    ``exonerator`` may be ``None`` when only :meth:`dos_origins` is.
    """

    name = "attack_origins"
    plane = "attacks"

    def __init__(
        self,
        geo: Optional[GeoRegistry],
        exonerator: Optional[ExoneraTorDB] = None,
        *,
        protocol: Optional[ProtocolId] = None,
        top_k: int = 5,
        tor_protocol: ProtocolId = ProtocolId.HTTP,
        recurring_days: int = 3,
    ) -> None:
        super().__init__()
        self._geo = geo
        self._exonerator = exonerator
        self._protocol = protocol
        self._top_k = top_k
        self._tor_protocol = tor_protocol
        self._recurring_days = recurring_days
        self._dos_sources: Set[int] = set()
        self._tor_verdicts: Dict[int, bool] = {}
        self._tor_days: Dict[int, Set[int]] = {}
        self._tor_daily_events: Dict[int, int] = {}

    def _feed_row(self, row: Any) -> None:
        if row.attack_type in _DOS_TYPES and (
            self._protocol is None or row.protocol == self._protocol
        ):
            self._dos_sources.add(row.source)
        if self._exonerator is not None and row.protocol == self._tor_protocol:
            source = row.source
            verdict = self._tor_verdicts.get(source)
            if verdict is None:
                verdict = self._exonerator.was_tor_relay(source)
                self._tor_verdicts[source] = verdict
            if verdict:
                day = row.day
                self._tor_days.setdefault(source, set()).add(day)
                self._tor_daily_events[day] = (
                    self._tor_daily_events.get(day, 0) + 1
                )

    def dos_origins(self) -> List[Tuple[str, int]]:
        """Top origin countries of the DoS sources: (country name,
        distinct sources) pairs, descending — the §5.1 "attacks came
        from ..." lists."""
        histogram = self._geo.histogram(self._dos_sources)
        ranked = sorted(
            histogram.items(), key=lambda item: -item[1]
        )[: self._top_k]
        return [
            (self._geo.country_name(code), count) for code, count in ranked
        ]

    def tor_analysis(self) -> TorAnalysis:
        """The §5.1.6 Tor findings over the rows fed so far."""
        return TorAnalysis(
            relay_sources=set(self._tor_days),
            recurring_relays={
                source
                for source, days in self._tor_days.items()
                if len(days) >= self._recurring_days
            },
            daily_events=dict(self._tor_daily_events),
        )

    def snapshot(self) -> Dict[str, Any]:
        return {"dos_origins": self.dos_origins(), "tor": self.tor_analysis()}


def dos_origin_countries(
    log: ColumnStore,
    geo: GeoRegistry,
    protocol: Optional[ProtocolId] = None,
    top_k: int = 5,
) -> List[Tuple[str, int]]:
    """Top origin countries of DoS-related attack sources
    (:class:`AttackOriginsOperator` fed once)."""
    operator = AttackOriginsOperator(geo, protocol=protocol, top_k=top_k)
    operator.feed(log)
    return operator.dos_origins()


def analyze_tor_sources(
    log: ColumnStore,
    exonerator: ExoneraTorDB,
    *,
    protocol: ProtocolId = ProtocolId.HTTP,
    recurring_days: int = 3,
) -> TorAnalysis:
    """Cross the protocol's attack sources with the ExoneraTor records
    (:class:`AttackOriginsOperator` fed once)."""
    operator = AttackOriginsOperator(
        None, exonerator, tor_protocol=protocol,
        recurring_days=recurring_days,
    )
    operator.feed(log)
    return operator.tor_analysis()
