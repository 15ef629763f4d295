"""Application-layer probe builders — what ZGrab/custom scripts send.

Each probe captures the study's actual methodology:

* Telnet — connect and read the negotiation+banner (passive; the paper
  explicitly does *not* log in);
* MQTT — a credential-less CONNECT, to observe the CONNACK return code;
* AMQP — the protocol header, to elicit Connection.Start with product,
  version and SASL mechanisms;
* XMPP — a stream open, to read ``<stream:features>`` mechanisms;
* CoAP — ``GET /.well-known/core`` over UDP (the paper's custom script);
* UPnP — an ``ssdp:discover`` M-SEARCH over UDP.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.protocols.amqp import PROTOCOL_HEADER
from repro.protocols.base import ProtocolId
from repro.protocols.coap import well_known_core_request
from repro.protocols.cwmp import connection_request
from repro.protocols.dds import spdp_probe
from repro.protocols.mqtt import encode_connect
from repro.protocols.opcua import get_endpoints, hello
from repro.protocols.upnp import msearch_request

__all__ = [
    "tcp_probe_payload",
    "tcp_followup_payload",
    "udp_probe_payload",
]


def _xmpp_client_open() -> bytes:
    # Client-side stream header; 'from' is the prober, 'to' unknown.
    return (
        "<?xml version='1.0'?>"
        "<stream:stream to='target' version='1.0' xmlns='jabber:client' "
        "xmlns:stream='http://etherx.jabber.org/streams'>"
    ).encode("utf-8")


_TCP_PROBES: Dict[ProtocolId, Callable[[], bytes]] = {
    ProtocolId.MQTT: lambda: encode_connect("zgrab-probe"),
    ProtocolId.AMQP: lambda: PROTOCOL_HEADER,
    ProtocolId.XMPP: _xmpp_client_open,
    ProtocolId.TR069: connection_request,
    ProtocolId.OPCUA: hello,
}

_UDP_PROBES: Dict[ProtocolId, Callable[[], bytes]] = {
    ProtocolId.COAP: lambda: well_known_core_request(),
    ProtocolId.UPNP: lambda: msearch_request(),
    ProtocolId.DDS: lambda: spdp_probe(),
}


def tcp_followup_payload(
    protocol: ProtocolId, first_response: bytes
) -> Optional[bytes]:
    """Second-round probe for protocols whose handshake needs two steps.

    OPC UA answers HEL with ACK; the security posture only shows in the
    GetEndpoints response, so the grab continues one round.
    """
    if protocol == ProtocolId.OPCUA and first_response[:3] == b"ACK":
        return get_endpoints()
    return None


def tcp_probe_payload(protocol: ProtocolId) -> Optional[bytes]:
    """First application bytes ZGrab sends after connect (None = banner-only,
    which is the Telnet case)."""
    builder = _TCP_PROBES.get(protocol)
    return builder() if builder else None


def udp_probe_payload(protocol: ProtocolId) -> bytes:
    """The UDP probe datagram for a response-based protocol."""
    builder = _UDP_PROBES.get(protocol)
    if builder is None:
        raise KeyError(f"{protocol} is not a UDP-probed protocol")
    return builder()

