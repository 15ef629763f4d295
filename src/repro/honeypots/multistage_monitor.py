"""Online multistage-attack detection — HosTaGe's built-in service.

"The HosTaGe honeypot offers the detection of multistage attacks as a
service. For the other honeypots, we group the attacks from distinct source
IP addresses and check if multiple protocols are targeted" (Section 5.4).
The offline grouping lives in :mod:`repro.analysis.multistage`; this module
is the *online* variant a honeypot runs live: it watches events as they are
recorded and raises an alert the moment a source crosses its second
protocol.

Attach a monitor to an :class:`EventStore` by feeding it events (or wrap the
log with :meth:`watch`); alerts carry the protocol chain observed so far
and fire exactly once per source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.honeypots.events import AttackEvent, EventStore
from repro.protocols.base import ProtocolId

__all__ = ["MultistageAlert", "MultistageMonitor"]


@dataclass
class MultistageAlert:
    """Raised when one source is seen attacking a second protocol."""

    source: int
    chain: Tuple[ProtocolId, ...]   # protocols in first-seen order
    honeypots: Tuple[str, ...]      # honeypots touched so far
    timestamp: float


class MultistageMonitor:
    """Streams events; alerts on the second distinct protocol per source.

    ``ignore_sources`` takes the known scanning-service addresses so the
    live detector applies the same filter the offline analysis does.
    """

    def __init__(
        self,
        *,
        ignore_sources: Optional[Set[int]] = None,
        on_alert: Optional[Callable[[MultistageAlert], None]] = None,
    ) -> None:
        self.ignore_sources = ignore_sources or set()
        self.on_alert = on_alert
        self._chains: Dict[int, List[ProtocolId]] = {}
        self._honeypots: Dict[int, List[str]] = {}
        self._alerted: Set[int] = set()
        self.alerts: List[MultistageAlert] = []

    def observe(self, event: AttackEvent) -> Optional[MultistageAlert]:
        """Feed one event; returns the alert if this event triggered one."""
        if event.source in self.ignore_sources:
            return None
        chain = self._chains.setdefault(event.source, [])
        honeypots = self._honeypots.setdefault(event.source, [])
        if event.protocol not in chain:
            chain.append(event.protocol)
        if event.honeypot not in honeypots:
            honeypots.append(event.honeypot)
        if len(chain) >= 2 and event.source not in self._alerted:
            self._alerted.add(event.source)
            alert = MultistageAlert(
                source=event.source,
                chain=tuple(chain),
                honeypots=tuple(honeypots),
                timestamp=event.timestamp,
            )
            self.alerts.append(alert)
            if self.on_alert is not None:
                self.on_alert(alert)
            return alert
        return None

    def replay(self, log: EventStore) -> List[MultistageAlert]:
        """Stream an existing log through the monitor in time order."""
        timestamps = log.column("timestamp")
        for index in sorted(range(len(log)), key=timestamps.__getitem__):
            self.observe(log.row(index))
        return self.alerts

    def chain_of(self, source: int) -> Tuple[ProtocolId, ...]:
        """The protocol chain observed for one source so far."""
        return tuple(self._chains.get(source, ()))

    @property
    def alerted_sources(self) -> Set[int]:
        """Sources that have triggered an alert."""
        return set(self._alerted)
