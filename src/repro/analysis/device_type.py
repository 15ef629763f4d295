"""Device-type identification — Figure 2 and Table 11.

Device types are recovered by "matching specific text from the banners and
the response" (Section 4.1.2); the signature table is compiled from the
same identification material Table 11 publishes, and applied through the
generic ZTag engine.  The report aggregates the per-protocol type mix that
Figure 2 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.operator import OperatorBase
from repro.internet.devices import DEVICE_PROFILES, DeviceProfile
from repro.protocols.base import ProtocolId
from repro.core.columns import ColumnTable
from repro.scanner.records import ScanRecord
from repro.scanner.ztag import TagEngine, TagSignature

__all__ = [
    "build_device_signatures",
    "DeviceTypeReport",
    "DeviceTypeOperator",
    "identify_device_types",
]

_NAMESPACE_TYPE = "device_type"
_NAMESPACE_MODEL = "device_model"


def _identifier_of(profile: DeviceProfile) -> Optional[str]:
    """The banner/response text that identifies this profile on the wire."""
    candidates = [
        profile.telnet_greeting,
        profile.upnp_friendly_name,
        profile.upnp_model_name,
        profile.upnp_model_description,
        profile.upnp_model_number,
        profile.upnp_manufacturer,
        profile.upnp_server,
        profile.coap_title,
    ]
    for text in candidates:
        if text:
            return text
    if profile.mqtt_topics:
        return profile.mqtt_topics[0].rsplit("/", 1)[0]
    if profile.coap_resources:
        return profile.coap_resources[0]
    return None


def build_device_signatures() -> List[TagSignature]:
    """Compile the Table 11 catalog into ZTag signatures.

    Generic profiles (the catch-all servers) are emitted last so specific
    device identifiers win; the XMPP/AMQP generics carry no signature at all
    — exactly the paper's observation that those responses are insufficient
    to label a device.
    """
    specific: List[TagSignature] = []
    generic: List[TagSignature] = []
    for profile in DEVICE_PROFILES:
        identifier = _identifier_of(profile)
        if identifier is None or profile.device_type == "Server":
            continue
        signature = TagSignature(
            needle=identifier,
            tags=(
                (_NAMESPACE_TYPE, profile.device_type),
                (_NAMESPACE_MODEL, profile.name),
            ),
            protocol=str(profile.protocol),
        )
        (generic if profile.name.startswith("Generic") else specific).append(
            signature
        )
    return specific + generic


@dataclass
class DeviceTypeReport:
    """Per-protocol device-type counts (Figure 2's data)."""

    counts: Dict[ProtocolId, Dict[str, int]] = field(default_factory=dict)
    identified: int = 0
    unidentified: int = 0

    def percentages(self, protocol: ProtocolId) -> Dict[str, float]:
        """Type mix of one protocol as percentages."""
        table = self.counts.get(protocol, {})
        total = sum(table.values())
        if total == 0:
            return {}
        return {name: 100.0 * count / total for name, count in table.items()}

    def top_types(self, protocol: ProtocolId, k: int = 5) -> List[Tuple[str, int]]:
        """The k most common device types on one protocol."""
        table = self.counts.get(protocol, {})
        return sorted(table.items(), key=lambda item: -item[1])[:k]


class DeviceTypeOperator(OperatorBase):
    """Figure 2 as an online fold: tag each first-seen ``(address,
    protocol)`` and count device types per protocol.

    Rows arrive in storage order, so the ``seen`` set makes the same
    first-seen choices at every chunk size.
    """

    name = "device_type"
    plane = "scan"

    def __init__(self, *, engine: Optional[TagEngine] = None) -> None:
        super().__init__()
        self._engine = engine or TagEngine(build_device_signatures())
        self._seen: Set[Tuple[int, ProtocolId]] = set()
        self._counts: Dict[ProtocolId, Dict[str, int]] = {}
        self._identified = 0
        self._unidentified = 0

    def _feed_row(self, row: ScanRecord) -> None:
        key = (row.address, row.protocol)
        if key in self._seen:
            return
        self._seen.add(key)
        device_type = self._engine.tag_record(row).tag(_NAMESPACE_TYPE)
        if device_type is None:
            self._unidentified += 1
            return
        self._identified += 1
        protocol_counts = self._counts.setdefault(key[1], {})
        protocol_counts[device_type] = protocol_counts.get(device_type, 0) + 1

    def snapshot(self) -> DeviceTypeReport:
        return DeviceTypeReport(
            counts={
                protocol: dict(table)
                for protocol, table in self._counts.items()
            },
            identified=self._identified,
            unidentified=self._unidentified,
        )


def identify_device_types(
    database: ColumnTable,
    *,
    engine: Optional[TagEngine] = None,
) -> DeviceTypeReport:
    """Tag every record and aggregate the Figure 2 mix
    (:class:`DeviceTypeOperator` fed once)."""
    operator = DeviceTypeOperator(engine=engine)
    operator.feed(database)
    return operator.finalize()
