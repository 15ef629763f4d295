"""ZTag-style annotation: enrich raw scan records with metadata tags.

The paper "leverage[s] ZTag, a tool for annotation of raw data with
additional metadata ... The banners and static responses are used as
metadata for tagging the device types" (Section 4.1.2).  Our tag engine is
the same idea: an ordered signature table of (substring, tags) applied to
each record's banner/response text; first match wins within a namespace.

The device-type signature set itself lives with the analysis layer
(:mod:`repro.analysis.device_type`) and is compiled from the Table 11
catalog, keeping the engine generic and reusable (the honeypot
fingerprinter uses the same machinery with its own signatures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.scanner.records import ScanRecord

__all__ = ["TagSignature", "TagEngine", "TaggedRecord"]


@dataclass(frozen=True)
class TagSignature:
    """One match rule: if ``needle`` appears, apply ``tags``."""

    needle: str
    tags: Tuple[Tuple[str, str], ...]  # ((namespace, value), ...)
    #: Restrict to records of one protocol value ("" = any).
    protocol: str = ""
    #: Match against "banner", "response" or "any".
    where: str = "any"

    def matches(self, record: ScanRecord) -> bool:
        if self.protocol and str(record.protocol) != self.protocol:
            return False
        if self.where in ("banner", "any") and self.needle in record.banner_text:
            return True
        if self.where in ("response", "any") and self.needle in record.response_text:
            return True
        return False


@dataclass
class TaggedRecord:
    """A scan record plus its namespace → value tags."""

    record: ScanRecord
    tags: Dict[str, str] = field(default_factory=dict)

    def tag(self, namespace: str) -> Optional[str]:
        """The value tagged under ``namespace`` (None = untagged)."""
        return self.tags.get(namespace)


class TagEngine:
    """Applies an ordered signature table to scan records."""

    def __init__(self, signatures: Iterable[TagSignature]) -> None:
        self._signatures: List[TagSignature] = list(signatures)

    def tag_record(self, record: ScanRecord) -> TaggedRecord:
        """Tag one record; first matching signature wins per namespace."""
        tagged = TaggedRecord(record=record)
        for signature in self._signatures:
            if not signature.matches(record):
                continue
            for namespace, value in signature.tags:
                tagged.tags.setdefault(namespace, value)
        return tagged

    def __len__(self) -> int:
        return len(self._signatures)
