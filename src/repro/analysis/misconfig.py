"""Misconfiguration classification — Tables 2, 3 and 5.

The classifier consumes only scan-record bytes (banners and responses),
never ground truth.  Per protocol it applies the paper's indicators:

========  ==========================================  =======================
Protocol  Observable indicator                         Verdict
========  ==========================================  =======================
Telnet    banner ends in ``root@xxx:~$``/``admin@``    no auth, root console
Telnet    banner ends in a plain ``$`` prompt          no auth, console
MQTT      CONNACK return code 0 to blank CONNECT       no auth
AMQP      Connection.Start offers ANONYMOUS, or the    no auth
          product version is a known-vulnerable one
XMPP      SASL ANONYMOUS offered                       anonymous login
XMPP      PLAIN offered without STARTTLS               no encryption
CoAP      ``220-Admin`` marker in response             no auth, admin access
CoAP      ``x1C``/``220`` marker in response           no auth (full access)
CoAP      link-format resource listing                 reflection resource
UPnP      M-SEARCH reply disclosing ``LOCATION``       reflection resource
========  ==========================================  =======================

A verdict depends only on ``(protocol, banner, response)``, and a scan
campaign repeats few distinct texts many times, so :func:`classify_record`
answers from a bounded cache keyed on that triple.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.core.operator import OperatorBase
from repro.core.taxonomy import MISCONFIG_LABELS, MISCONFIG_PROTOCOL, Misconfig
from repro.net.errors import ProtocolError
from repro.protocols.amqp import parse_connection_start
from repro.protocols.base import ProtocolId
from repro.protocols.mqtt import ConnectReturnCode, decode_connack
from repro.protocols.telnet import strip_iac
from repro.protocols.xmpp import offers_starttls, parse_mechanisms
from repro.core.columns import ColumnTable
from repro.scanner.records import ScanRecord

__all__ = [
    "VULNERABLE_AMQP_VERSIONS",
    "classify_record",
    "MisconfigReport",
    "MisconfigOperator",
    "classify_database",
]

#: Table 2's AMQP rows: versions whose presence alone flags the broker.
VULNERABLE_AMQP_VERSIONS = frozenset({"2.7.1", "2.8.4"})

_ROOT_PROMPT_RE = re.compile(r"(root|admin)@[\w.\-]+:~[#$]\s*$")
_PLAIN_PROMPT_RE = re.compile(r"[#$]\s*$")


def classify_record(record: ScanRecord) -> Misconfig:
    """Classify one scan record; :data:`Misconfig.NONE` when healthy."""
    return _classify_text(record.protocol, record.banner, record.response)


@functools.lru_cache(maxsize=4096)
def _classify_text(protocol: ProtocolId, banner: bytes, response: bytes) -> Misconfig:
    handler = _CLASSIFIERS.get(protocol)
    return handler(banner, response) if handler else Misconfig.NONE


def _text(data: bytes) -> str:
    """Bytes decoded like :attr:`ScanRecord.response_text`."""
    return data.decode("utf-8", errors="backslashreplace")


def _classify_telnet(banner: bytes, response: bytes) -> Misconfig:
    text = strip_iac(banner).decode("utf-8", errors="replace")
    if not text:
        return Misconfig.NONE
    if _ROOT_PROMPT_RE.search(text):
        return Misconfig.TELNET_NO_AUTH_ROOT
    if "login" in text.lower() or "password" in text.lower():
        return Misconfig.NONE
    if _PLAIN_PROMPT_RE.search(text):
        return Misconfig.TELNET_NO_AUTH
    return Misconfig.NONE


def _classify_mqtt(banner: bytes, response: bytes) -> Misconfig:
    try:
        code = decode_connack(response)
    except ProtocolError:
        return Misconfig.NONE
    if code == ConnectReturnCode.ACCEPTED:
        return Misconfig.MQTT_NO_AUTH
    return Misconfig.NONE


def _classify_amqp(banner: bytes, response: bytes) -> Misconfig:
    try:
        properties, mechanisms = parse_connection_start(response)
    except ProtocolError:
        return Misconfig.NONE
    if "ANONYMOUS" in mechanisms:
        return Misconfig.AMQP_NO_AUTH
    if properties.get("version", "") in VULNERABLE_AMQP_VERSIONS:
        return Misconfig.AMQP_NO_AUTH
    return Misconfig.NONE


def _classify_xmpp(banner: bytes, response: bytes) -> Misconfig:
    features = _text(response)
    mechanisms = parse_mechanisms(features)
    if not mechanisms:
        return Misconfig.NONE
    if "ANONYMOUS" in mechanisms:
        return Misconfig.XMPP_ANONYMOUS
    if "PLAIN" in mechanisms and not offers_starttls(features):
        return Misconfig.XMPP_NO_ENCRYPTION
    return Misconfig.NONE


def _classify_coap(banner: bytes, response: bytes) -> Misconfig:
    payload = _text(response)
    if not payload:
        return Misconfig.NONE
    # Skip past the CoAP binary header to the text payload markers.
    if "220-Admin" in payload:
        return Misconfig.COAP_NO_AUTH_ADMIN
    if "x1C" in payload or re.search(r"\b220\b", payload):
        return Misconfig.COAP_NO_AUTH
    if "</" in payload or ";rt=" in payload or "<" in payload and ">" in payload:
        return Misconfig.COAP_REFLECTOR
    return Misconfig.NONE


def _classify_upnp(banner: bytes, response: bytes) -> Misconfig:
    text = _text(response)
    if "LOCATION:" in text.upper():
        return Misconfig.UPNP_REFLECTOR
    return Misconfig.NONE


# -- extension protocols (§6 future work) ----------------------------------


def _classify_tr069(banner: bytes, response: bytes) -> Misconfig:
    """A 200 to an unauthenticated connection request = open management."""
    text = _text(response)
    if text.startswith("HTTP/1.1 200") and "WWW-Authenticate" not in text:
        return Misconfig.TR069_NO_AUTH
    return Misconfig.NONE


def _classify_dds(banner: bytes, response: bytes) -> Misconfig:
    """Any SPDP announcement to a unicast probe = open discovery."""
    if response[:4] == b"RTPS":
        return Misconfig.DDS_OPEN_DISCOVERY
    return Misconfig.NONE


def _classify_opcua(banner: bytes, response: bytes) -> Misconfig:
    """A GetEndpoints response offering SecurityPolicy#None = no security."""
    if "SecurityPolicy#None" in _text(response):
        return Misconfig.OPCUA_NO_SECURITY
    return Misconfig.NONE


_CLASSIFIERS = {
    ProtocolId.TELNET: _classify_telnet,
    ProtocolId.MQTT: _classify_mqtt,
    ProtocolId.AMQP: _classify_amqp,
    ProtocolId.XMPP: _classify_xmpp,
    ProtocolId.COAP: _classify_coap,
    ProtocolId.UPNP: _classify_upnp,
    ProtocolId.TR069: _classify_tr069,
    ProtocolId.DDS: _classify_dds,
    ProtocolId.OPCUA: _classify_opcua,
}


@dataclass
class MisconfigReport:
    """Table 5 as data: per-class address sets plus the grand total."""

    hosts_by_class: Dict[Misconfig, Set[int]] = field(default_factory=dict)

    def count(self, label: Misconfig) -> int:
        """Devices found with one vulnerability class."""
        return len(self.hosts_by_class.get(label, set()))

    @property
    def total(self) -> int:
        """Total unique misconfigured devices (Table 5's bottom line)."""
        addresses: Set[int] = set()
        for hosts in self.hosts_by_class.values():
            addresses.update(hosts)
        return len(addresses)

    def all_addresses(self) -> Set[int]:
        """Union of all misconfigured addresses."""
        addresses: Set[int] = set()
        for hosts in self.hosts_by_class.values():
            addresses.update(hosts)
        return addresses

    def rows(self) -> List[tuple]:
        """(protocol, vulnerability, count) rows, ascending by count —
        the ordering Table 5 prints."""
        rows = [
            (
                str(MISCONFIG_PROTOCOL[label]),
                MISCONFIG_LABELS[label],
                self.count(label),
            )
            for label in self.hosts_by_class
        ]
        return sorted(rows, key=lambda row: row[2])


class MisconfigOperator(OperatorBase):
    """Table 5 as an online fold: per-class misconfigured addresses.

    ``exclude_addresses`` carries the fingerprinted honeypots (the paper
    filters them before counting Table 5).  Classification is per row,
    so chunking is invisible.
    """

    name = "misconfig"
    plane = "scan"

    def __init__(self, *, exclude_addresses: Optional[Set[int]] = None) -> None:
        super().__init__()
        self._exclude = exclude_addresses or set()
        self._hosts: Dict[Misconfig, Set[int]] = {
            label: set() for label in MISCONFIG_PROTOCOL
        }

    def _feed_row(self, row: ScanRecord) -> None:
        if row.address in self._exclude:
            return
        label = classify_record(row)
        if label != Misconfig.NONE:
            self._hosts[label].add(row.address)

    def snapshot(self) -> MisconfigReport:
        return MisconfigReport(
            hosts_by_class={
                label: set(hosts) for label, hosts in self._hosts.items()
            }
        )

    def finalize(self) -> MisconfigReport:
        # Sealed state needs no copy.  The fold's own sets also keep the
        # iteration order their inserts built, which the phase cache
        # pickles; a copy may iterate differently.
        super().finalize()
        return MisconfigReport(hosts_by_class=self._hosts)


def classify_database(
    database: ColumnTable,
    *,
    exclude_addresses: Optional[Set[int]] = None,
) -> MisconfigReport:
    """Table 5 over a whole scan database (:class:`MisconfigOperator`
    fed once)."""
    operator = MisconfigOperator(exclude_addresses=exclude_addresses)
    operator.feed(database)
    return operator.finalize()
