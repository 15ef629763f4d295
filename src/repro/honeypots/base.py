"""Lab honeypot framework: real protocol engines under observation.

Each lab honeypot is a :class:`SimulatedHost` whose services are ordinary
protocol engines (the same classes the device population uses — honeypots
*are* emulations of devices).  What makes it a honeypot is observation:
every session the attack month (:mod:`repro.attacks.schedule`) drives
against it yields a :class:`SessionTranscript`, which is classified into
an attack type (``classify.py``) and appended to the shared
:class:`EventStore`.

The honeypot only sees bytes: the event labels in the log are *inferred*,
with the actor's ground-truth label carried alongside for fidelity tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.honeypots.events import EventStore
from repro.internet.fabric import SimulatedInternet
from repro.internet.host import SimulatedHost
from repro.net.ipv4 import ip_to_int
from repro.protocols.base import ProtocolId, ProtocolServer

__all__ = ["SessionTranscript", "LabHoneypot", "HoneypotDeployment"]


@dataclass
class SessionTranscript:
    """Everything one attacker session exchanged with one service."""

    protocol: ProtocolId
    port: int
    source: int
    exchanges: List[Tuple[bytes, bytes]] = field(default_factory=list)
    banner: bytes = b""

    @property
    def request_bytes(self) -> int:
        """Total attacker bytes in the session."""
        # Plain loop: this runs once per recorded event over every
        # exchange, and the generator frame costs more than the adds.
        total = 0
        for request, _ in self.exchanges:
            total += len(request)
        return total


class LabHoneypot:
    """One deployed honeypot: identity, services, session recording."""

    def __init__(
        self,
        name: str,
        device_profile: str,
        address: str,
        services: Dict[int, ProtocolServer],
        log: EventStore,
    ) -> None:
        self.name = name
        self.device_profile = device_profile
        self.address = ip_to_int(address)
        self.services = services
        self.log = log
        #: Day each scanning service listed this honeypot (set by scheduler).
        self.listing_days: Dict[str, int] = {}
        #: Optional tcpdump stand-in; set via :meth:`enable_pcap`.
        self.pcap = None

    def host(self) -> SimulatedHost:
        """The fabric endpoint representing this honeypot."""
        return SimulatedHost(
            address=self.address,
            services=self.services,
            device_name=self.device_profile,
            device_type="Lab Honeypot",
            is_honeypot=True,
            honeypot_kind=self.name,
        )

    def ports_for(self, protocol: ProtocolId) -> List[int]:
        """Ports on which this honeypot emulates ``protocol``."""
        return [
            port for port, server in self.services.items()
            if server.protocol == protocol
        ]

    def enable_pcap(self) -> None:
        """Start capturing every recorded session as pcap bytes."""
        from repro.honeypots.pcap import PcapCapture

        self.pcap = PcapCapture(self.address)


class HoneypotDeployment:
    """The six-honeypot lab: attachment and lookup."""

    def __init__(self, honeypots: List[LabHoneypot], log: EventStore) -> None:
        self.honeypots = honeypots
        self.log = log
        self._by_name = {honeypot.name: honeypot for honeypot in honeypots}
        self._by_address = {honeypot.address: honeypot for honeypot in honeypots}

    def attach(self, internet: SimulatedInternet) -> None:
        """Expose every honeypot on the simulated Internet."""
        for honeypot in self.honeypots:
            internet.add_host(honeypot.host())

    def detach(self, internet: SimulatedInternet) -> None:
        """Remove the lab's addresses from the fabric again.

        The engine detaches after the attack month so a cached world can be
        reused by scan/fingerprint phases without the lab leaking into their
        results (logs and honeypot state survive on the deployment itself).
        """
        for honeypot in self.honeypots:
            internet.remove_host(honeypot.address)

    def get(self, name: str) -> LabHoneypot:
        """Honeypot by name (KeyError when absent)."""
        return self._by_name[name]

    def names(self) -> List[str]:
        """Deployment honeypot names in order."""
        return [honeypot.name for honeypot in self.honeypots]

    def emulating(self, protocol: ProtocolId) -> List[LabHoneypot]:
        """Honeypots that emulate one protocol."""
        return [
            honeypot for honeypot in self.honeypots
            if honeypot.ports_for(protocol)
        ]
