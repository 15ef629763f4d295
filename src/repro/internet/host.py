"""The simulated host: one public address, its services, its ground truth.

A host owns a port → :class:`ProtocolServer` table.  Ground-truth fields
(``misconfig``, ``is_honeypot`` …) exist so tests and fidelity reports can
score the pipeline, but nothing in the scan/classify path reads them — the
pipeline sees only bytes, like the real study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.taxonomy import Misconfig
from repro.net.ipv4 import int_to_ip
from repro.net.latency import LatencySampler, real_device_latency
from repro.net.prng import RandomStream
from repro.protocols.base import ProtocolId, ProtocolServer

__all__ = ["SimulatedHost"]


@dataclass
class SimulatedHost:
    """One addressable endpoint on the simulated Internet."""

    address: int
    services: Dict[int, ProtocolServer] = field(default_factory=dict)
    # -- ground truth (never consulted by the measurement pipeline) -------
    device_name: str = ""
    device_type: str = ""
    misconfig: Misconfig = Misconfig.NONE
    is_honeypot: bool = False
    honeypot_kind: str = ""
    #: set by the attack layer when the host is recruited into a botnet.
    infected: bool = False
    infected_by: str = ""
    #: response-time distribution (timing-fingerprinting observable).
    latency: Optional[LatencySampler] = None
    #: ``(seed, stream name)`` of a sampler not drawn yet: the population
    #: builder defers each device's ``real_device_latency`` draw to the
    #: first :meth:`latency_model` call.  The stream is a pure function of
    #: ``(seed, name)``, so when it is drawn does not move a value.
    latency_stream: Optional[Tuple[int, str]] = None

    def latency_model(self) -> Optional[LatencySampler]:
        """:attr:`latency`, drawn from :attr:`latency_stream` first if it
        is still deferred."""
        if self.latency is None and self.latency_stream is not None:
            self.latency = real_device_latency(
                RandomStream(*self.latency_stream)
            )
            self.latency_stream = None
        return self.latency

    @property
    def address_text(self) -> str:
        """Dotted-quad address."""
        return int_to_ip(self.address)

    @property
    def open_ports(self) -> List[int]:
        """Ports with a listening service."""
        return sorted(self.services)

    def service_on(self, port: int) -> Optional[ProtocolServer]:
        """The server listening on ``port`` (None if closed)."""
        return self.services.get(port)

    def protocols(self) -> List[ProtocolId]:
        """Distinct protocols this host exposes."""
        seen: List[ProtocolId] = []
        for port in self.open_ports:
            protocol = self.services[port].protocol
            if protocol not in seen:
                seen.append(protocol)
        return seen

    def __repr__(self) -> str:
        kind = f" honeypot={self.honeypot_kind}" if self.is_honeypot else ""
        return (
            f"SimulatedHost({self.address_text}, ports={self.open_ports},"
            f" device={self.device_name!r}{kind})"
        )

