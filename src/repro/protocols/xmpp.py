"""XMPP (RFC 6120): stream handshake, SASL feature advertisement, login.

The scan opens a stream on client port 5222 (or server port 5269) and reads
the ``<stream:features>`` stanza.  The misconfiguration indicators of Table 2
live in the SASL mechanism list: ``<mechanism>PLAIN</mechanism>`` without
mandatory STARTTLS means credentials cross in clear text ("No encryption"),
and ``<mechanism>ANONYMOUS</mechanism>`` means anyone can bind a session
("No auth" / anonymous login — 143,986 devices in Table 5).

The ThingPot honeypot emulates a Philips Hue bridge over XMPP; our attack
models log in anonymously and try to toggle lights, as Section 5.1.2
describes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.protocols.base import ProtocolId, ProtocolServer, ServerReply, Session

__all__ = [
    "stream_open",
    "stream_features",
    "parse_mechanisms",
    "offers_starttls",
    "XmppConfig",
    "XmppServer",
]

_STREAM_OPEN_TEMPLATE = (
    "<?xml version='1.0'?>"
    "<stream:stream from='{domain}' id='{stream_id}' version='1.0' "
    "xml:lang='en' xmlns='jabber:client' "
    "xmlns:stream='http://etherx.jabber.org/streams'>"
)


def stream_open(domain: str, stream_id: str) -> str:
    """Server-side stream header."""
    return _STREAM_OPEN_TEMPLATE.format(domain=domain, stream_id=stream_id)


def stream_features(mechanisms: List[str], starttls: bool, tls_required: bool) -> str:
    """Build the ``<stream:features>`` stanza a server advertises."""
    parts = ["<stream:features>"]
    if starttls:
        parts.append("<starttls xmlns='urn:ietf:params:xml:ns:xmpp-tls'>")
        if tls_required:
            parts.append("<required/>")
        parts.append("</starttls>")
    parts.append("<mechanisms xmlns='urn:ietf:params:xml:ns:xmpp-sasl'>")
    for mechanism in mechanisms:
        parts.append(f"<mechanism>{mechanism}</mechanism>")
    parts.append("</mechanisms></stream:features>")
    return "".join(parts)


_MECHANISM_RE = re.compile(r"<mechanism>([^<]+)</mechanism>")


def parse_mechanisms(features_xml: str) -> List[str]:
    """Extract SASL mechanisms from a features stanza."""
    return _MECHANISM_RE.findall(features_xml)


def offers_starttls(features_xml: str) -> bool:
    """True if the server advertises STARTTLS at all."""
    return "<starttls" in features_xml


@dataclass
class XmppConfig:
    """Server behaviour: domain, SASL posture, device backend."""

    domain: str = "xmpp.local"
    mechanisms: List[str] = field(default_factory=lambda: ["SCRAM-SHA-1"])
    starttls: bool = True
    tls_required: bool = True
    credentials: Dict[str, str] = field(default_factory=dict)
    #: Named device state an authenticated session may mutate (e.g. Hue
    #: lights); used by the write-privilege probing attacks.
    device_state: Dict[str, str] = field(default_factory=dict)


class XmppServer(ProtocolServer):
    """XMPP endpoint with SASL and a tiny IQ command surface."""

    protocol = ProtocolId.XMPP

    def __init__(self, config: XmppConfig) -> None:
        self.config = config
        self.state: Dict[str, str] = dict(config.device_state)
        self.poison_events = 0
        #: Stream ids numbered per peer address, so one vantage point's
        #: sessions never shift the ids another vantage point is handed.
        self._stream_counters: Dict[int, int] = {}

    def banner(self) -> bytes:
        return b""  # client speaks first in XMPP

    def handle(self, request: bytes, session: Session) -> ServerReply:
        text = request.decode("utf-8", errors="replace")
        if session.state == "new":
            if "<stream:stream" not in text:
                return ServerReply(close=True)
            counter = self._stream_counters.get(session.peer, 0) + 1
            self._stream_counters[session.peer] = counter
            session.state = "features-sent"
            reply = stream_open(self.config.domain, f"s{counter:08d}")
            reply += stream_features(
                self.config.mechanisms, self.config.starttls, self.config.tls_required
            )
            return ServerReply(reply.encode("utf-8"))
        if session.state == "features-sent":
            return self._auth(text, session)
        if session.state == "authenticated":
            return self._stanza(text, session)
        return ServerReply(close=True)

    def _auth(self, text: str, session: Session) -> ServerReply:
        failure = (
            b"<failure xmlns='urn:ietf:params:xml:ns:xmpp-sasl'>"
            b"<not-authorized/></failure>"
        )
        success = b"<success xmlns='urn:ietf:params:xml:ns:xmpp-sasl'/>"
        match = re.search(r"<auth[^>]*mechanism='([^']+)'[^>]*>([^<]*)</auth>", text)
        if not match:
            return ServerReply(failure, close=True)
        mechanism, payload = match.group(1), match.group(2)
        if mechanism not in self.config.mechanisms:
            return ServerReply(failure, close=True)
        if mechanism == "ANONYMOUS":
            session.state = "authenticated"
            session.username = "anonymous"
            return ServerReply(success)
        if mechanism == "PLAIN":
            # payload is authzid\0user\0pass (we accept unencoded for clarity)
            parts = payload.split("\x00")
            if len(parts) == 3:
                _, username, password = parts
                if self.config.credentials.get(username) == password:
                    session.state = "authenticated"
                    session.username = username
                    return ServerReply(success)
            return ServerReply(failure, close=True)
        # SCRAM flows are not brute-forceable in our model: reject.
        return ServerReply(failure, close=True)

    def _stanza(self, text: str, session: Session) -> ServerReply:
        """Handle authenticated IQ 'set'/'get' against device state."""
        set_match = re.search(r"<set\s+name='([^']+)'\s+value='([^']+)'", text)
        if set_match:
            name, value = set_match.group(1), set_match.group(2)
            if name in self.state and self.state[name] != value:
                self.poison_events += 1
            self.state[name] = value
            return ServerReply(b"<iq type='result'/>")
        get_match = re.search(r"<get\s+name='([^']+)'", text)
        if get_match:
            value = self.state.get(get_match.group(1), "")
            return ServerReply(
                f"<iq type='result'><value>{value}</value></iq>".encode("utf-8")
            )
        if "</stream:stream>" in text:
            return ServerReply(b"</stream:stream>", close=True)
        return ServerReply(b"<iq type='error'/>")
