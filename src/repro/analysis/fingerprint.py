"""Honeypot fingerprinting — the Table 6 filter.

"We deploy open-source and widely used honeypots in our lab to determine the
unique characteristics that differentiate them ... static banners, response,
or content" (Section 3.2).  The fingerprinter matches each Telnet/SSH scan
record against the catalog of frozen banners; a hit marks the source address
as a honeypot and names the product.

The canonical pipeline order matters and is preserved by
:func:`repro.core.study.Study`: fingerprint *first*, then classify
misconfigurations with the honeypot addresses excluded — otherwise, e.g.,
Anglerfish's ``[root@LocalHost tmp]$`` banner would be counted as a
root-console misconfiguration (the pollution the paper quantifies at 8,192
hosts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.internet.wild_honeypots import WILD_HONEYPOT_CATALOG, WildHoneypotKind
from repro.protocols.base import ProtocolId
from repro.scanner.records import ScanDatabase, ScanRecord

__all__ = ["HoneypotSignature", "default_signatures", "FingerprintReport", "HoneypotFingerprinter"]


@dataclass(frozen=True)
class HoneypotSignature:
    """A frozen banner prefix that identifies one honeypot product."""

    honeypot: str
    protocol: ProtocolId
    banner_prefix: bytes

    def matches(self, record: ScanRecord) -> bool:
        if record.protocol != self.protocol:
            return False
        return record.banner.startswith(self.banner_prefix)


def default_signatures() -> List[HoneypotSignature]:
    """Signatures for the nine products of Table 6.

    Built from the same published banners the wild deployment uses — which
    mirrors reality: the authors learned the banners by running the same
    open-source honeypots they later detected.
    """
    signatures = []
    for kind in WILD_HONEYPOT_CATALOG:
        protocol = (
            ProtocolId.SSH if kind.protocol == ProtocolId.SSH else ProtocolId.TELNET
        )
        signatures.append(
            HoneypotSignature(
                honeypot=kind.name,
                protocol=protocol,
                banner_prefix=kind.banner.rstrip(),
            )
        )
    return signatures


@dataclass
class FingerprintReport:
    """Detected honeypots: product → address set."""

    detections: Dict[str, Set[int]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Total detected honeypot instances (Table 6's 8,192)."""
        return sum(len(addresses) for addresses in self.detections.values())

    def addresses(self) -> Set[int]:
        """All addresses fingerprinted as honeypots."""
        result: Set[int] = set()
        for addresses in self.detections.values():
            result.update(addresses)
        return result

    def count(self, honeypot: str) -> int:
        """Instances detected of one product."""
        return len(self.detections.get(honeypot, set()))

    def rows(self) -> List[Tuple[str, int]]:
        """(product, count) rows in catalog order — Table 6's layout."""
        order = [kind.name for kind in WILD_HONEYPOT_CATALOG]
        return [(name, self.count(name)) for name in order]


class HoneypotFingerprinter:
    """Matches scan records against honeypot banner signatures."""

    def __init__(self, signatures: Optional[Iterable[HoneypotSignature]] = None) -> None:
        self.signatures: List[HoneypotSignature] = list(
            signatures if signatures is not None else default_signatures()
        )

    def fingerprint_record(self, record: ScanRecord) -> Optional[str]:
        """Product name if the record matches a honeypot signature."""
        for signature in self.signatures:
            if signature.matches(record):
                return signature.honeypot
        return None

    def fingerprint(self, database: ScanDatabase) -> FingerprintReport:
        """Scan the whole database for honeypots."""
        report = FingerprintReport(
            detections={signature.honeypot: set() for signature in self.signatures}
        )
        # Only rows of fingerprintable protocols can match; the typed
        # query skips the rest without building rows for them.
        protocols = {signature.protocol for signature in self.signatures}
        for row in database.where(protocol=protocols).iter_rows():
            name = self.fingerprint_record(row)
            if name is not None:
                report.detections.setdefault(name, set()).add(row.address)
        return report

    def active_ssh_probe(
        self,
        internet,
        addresses: Iterable[int],
        *,
        prober_address: int = 0x82E10064,  # 130.225.0.100
        report: Optional[FingerprintReport] = None,
    ) -> FingerprintReport:
        """Second fingerprinting stage: probe SSH on candidate addresses.

        The multistage framework the paper extends performs "sequential
        checks based on the services discovered on the target host"; Kippo
        is an SSH honeypot, so Telnet-only scans never see its banner.  This
        pass connects to port 22 on each candidate and matches the frozen
        SSH identification strings.
        """
        from repro.net.errors import ConnectionRefused, HostUnreachable

        result = report or FingerprintReport(
            detections={signature.honeypot: set() for signature in self.signatures}
        )
        ssh_signatures = [
            signature for signature in self.signatures
            if signature.protocol == ProtocolId.SSH
        ]
        if not ssh_signatures:
            return result
        for address in addresses:
            try:
                connection = internet.tcp_connect(prober_address, address, 22)
            except (HostUnreachable, ConnectionRefused):
                continue
            banner = connection.banner
            connection.close()
            for signature in ssh_signatures:
                if banner.startswith(signature.banner_prefix):
                    result.detections.setdefault(signature.honeypot, set()).add(
                        address
                    )
                    break
        return result
