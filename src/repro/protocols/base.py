"""Common protocol abstractions.

Every protocol in the study is modelled at two levels:

* a **wire codec** — functions that encode/decode the actual byte format of
  the protocol (MQTT fixed headers, CoAP binary headers, SSDP HTTP-over-UDP,
  Telnet IAC negotiation, ...), so that the scanner, the honeypots and the
  device population all speak the same bytes; and
* a **server engine** (:class:`ProtocolServer`) — the behaviour of one
  listening service on one simulated host: what banner it volunteers on
  connect, and how it answers an application-layer request.

The scanner never peeks into server objects; it only sees bytes, exactly as
ZGrab only sees bytes.  Misconfiguration is therefore *observable behaviour*
(an MQTT CONNACK code 0 without credentials), not a flag the classifier could
cheat by reading.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "ProtocolId",
    "DEFAULT_PORTS",
    "TransportKind",
    "transport_of",
    "ServerReply",
    "ProtocolServer",
    "Session",
]


class ProtocolId(str, enum.Enum):
    """The protocols appearing in the study.

    The first six are the scanned IoT protocols; the rest are additional
    services emulated by the deployed honeypots (Table 7).
    """

    TELNET = "telnet"
    MQTT = "mqtt"
    COAP = "coap"
    AMQP = "amqp"
    XMPP = "xmpp"
    UPNP = "upnp"
    SSH = "ssh"
    HTTP = "http"
    FTP = "ftp"
    SMB = "smb"
    MODBUS = "modbus"
    S7 = "s7"
    # Extension protocols (the paper's §6 future work): TR-069/CWMP, DDS
    # and OPC UA.  Not part of the six-protocol reproduction scans unless a
    # study opts in via ``ScanConfig.protocols``.
    TR069 = "tr069"
    DDS = "dds"
    OPCUA = "opcua"

    def __str__(self) -> str:  # nicer table rendering
        return self.value


#: Ports probed per protocol.  Telnet is scanned on both 23 and 2323 — the
#: paper calls this out as a reason its host counts exceed Project Sonar's.
DEFAULT_PORTS: Dict[ProtocolId, Tuple[int, ...]] = {
    ProtocolId.TELNET: (23, 2323),
    ProtocolId.MQTT: (1883,),
    ProtocolId.COAP: (5683,),
    ProtocolId.AMQP: (5672,),
    ProtocolId.XMPP: (5222, 5269),
    ProtocolId.UPNP: (1900,),
    ProtocolId.SSH: (22,),
    ProtocolId.HTTP: (80, 8080),
    ProtocolId.FTP: (21,),
    ProtocolId.SMB: (445,),
    ProtocolId.MODBUS: (502,),
    ProtocolId.S7: (102,),
    ProtocolId.TR069: (7547,),
    ProtocolId.DDS: (7400,),
    ProtocolId.OPCUA: (4840,),
}


class TransportKind(str, enum.Enum):
    """Transport used by each protocol (drives scan strategy)."""

    TCP = "tcp"
    UDP = "udp"


_UDP_PROTOCOLS = {ProtocolId.COAP, ProtocolId.UPNP, ProtocolId.DDS}


def transport_of(protocol: ProtocolId) -> TransportKind:
    """Transport layer of a protocol: CoAP and UPnP/SSDP ride UDP."""
    return TransportKind.UDP if protocol in _UDP_PROTOCOLS else TransportKind.TCP


@dataclass
class ServerReply:
    """What a server sends back for one request.

    ``close`` signals that the server tears the connection down after the
    reply (e.g. failed MQTT auth).
    """

    data: bytes = b""
    close: bool = False

    def __bool__(self) -> bool:
        return bool(self.data)


@dataclass
class Session:
    """Per-connection state a stateful server may keep (login phase etc.)."""

    peer: int = 0
    state: str = "new"
    username: str = ""
    attributes: Dict[str, str] = field(default_factory=dict)


class ProtocolServer(abc.ABC):
    """One listening service on one simulated host.

    Subclasses implement the wire behaviour; the base class fixes the
    single probe surface used by the simulated TCP/UDP fabric and the
    scanner (which no longer branches per protocol):

    * :meth:`accept` — called exactly once when a TCP connection is
      established; returns the bytes the server volunteers unprompted
      (the banner) and may initialise :class:`Session` state.  UDP
      services are never "accepted" — their first event is a datagram
      delivered straight to :meth:`handle`.
    * :meth:`handle` — reply to one inbound application-layer message in
      the context of a :class:`Session`.

    ``ServerReply.close`` semantics, uniform across protocols:

    ========================  =============================================
    ``close``                 meaning
    ========================  =============================================
    ``False`` (default)       session stays open; further ``handle`` calls
                              continue the same dialogue
    ``True`` with ``data``    reply bytes are delivered, *then* the server
                              tears the connection down (FTP ``221``,
                              Telnet ``Login incorrect``, AMQP header
                              rejection, XMPP stream errors)
    ``True`` without ``data``  silent teardown — a RST/FIN with no
                              application bytes (SSH protocol mismatch,
                              SMB rejecting an unknown dialect, services
                              dropping garbage input)
    ========================  =============================================

    After a closing reply the fabric marks the :class:`TcpConnection`
    closed; any further ``send`` raises ``ConnectionRefused``.  For UDP,
    ``close`` is meaningless and ignored (there is no connection).
    """

    protocol: ProtocolId

    @abc.abstractmethod
    def banner(self) -> bytes:
        """Bytes sent unprompted on connection establishment."""

    def accept(self, session: Session) -> bytes:
        """TCP accept hook: the unprompted greeting for this connection.

        The default returns :meth:`banner`; stateful servers may override
        to stamp ``session`` (e.g. advance a login state machine) while
        keeping the banner bytes identical for every peer.
        """
        return self.banner()

    @abc.abstractmethod
    def handle(self, request: bytes, session: Session) -> ServerReply:
        """Reply to one request within an established session."""

    def open_session(self, peer: int = 0) -> Session:
        """Create fresh per-connection state."""
        return Session(peer=peer)

    def handle_repeat(
        self, request: bytes, count: int, session: Session
    ) -> List[ServerReply]:
        """Handle ``count`` copies of one request within one TCP session.

        The contract is *exactly* ``count`` sequential :meth:`handle`
        calls, truncated after the first closing reply (mirroring how a
        driver loop stops sending once the server tears the connection
        down).  The returned list is therefore ``count`` replies, or
        shorter with ``replies[-1].close`` true.

        Flood and reflection payload lists repeat one identical packet
        tens of times; servers whose repeat response is analytically
        predictable (stateless responders, pure-counter floods) override
        this with a fast path that must stay byte-identical to the
        default loop — the attack plane's scalar oracle pins that.
        """
        replies: List[ServerReply] = []
        for _ in range(count):
            reply = self.handle(request, session)
            replies.append(reply)
            if reply.close:
                break
        return replies

    def handle_repeat_datagrams(
        self, request: bytes, count: int, peer: int = 0
    ) -> List[ServerReply]:
        """Handle ``count`` identical datagrams, each in a fresh session.

        The UDP twin of :meth:`handle_repeat`: datagram services get a
        fresh :class:`Session` per packet and never close, so the result
        is always exactly ``count`` replies.  Overrides must match this
        loop byte-for-byte.
        """
        return [
            self.handle(request, self.open_session(peer=peer))
            for _ in range(count)
        ]

    def describe(self) -> str:
        """One-line human description for logs and reports."""
        return f"{type(self).__name__}({self.protocol})"
