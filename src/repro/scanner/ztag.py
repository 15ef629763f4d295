"""ZTag-style annotation: enrich raw scan records with metadata tags.

The paper "leverage[s] ZTag, a tool for annotation of raw data with
additional metadata ... The banners and static responses are used as
metadata for tagging the device types" (Section 4.1.2).  Our tag engine is
the same idea: an ordered signature table of (substring, tags) applied to
each record's banner/response text; first match wins within a namespace.

A scan campaign repeats the same few texts many times over (at paper
scale 14k rows carry ~1.4k distinct (protocol, banner, response)
triples), so :class:`TagEngine` folds the signature table once per
distinct triple and memoizes the result; later rows with the same text
get a copy of the memoized tags.

The device-type signature set itself lives with the analysis layer
(:mod:`repro.analysis.device_type`) and is compiled from the Table 11
catalog, keeping the engine generic and reusable (the honeypot
fingerprinter uses the same machinery with its own signatures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

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
        return self.matches_text(
            str(record.protocol), record.banner_text, record.response_text
        )

    def matches_text(self, protocol: str, banner: str, response: str) -> bool:
        """:meth:`matches` over a record's already-decoded texts."""
        if self.protocol and protocol != self.protocol:
            return False
        if self.where in ("banner", "any") and self.needle in banner:
            return True
        if self.where in ("response", "any") and self.needle in response:
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
    """Applies an ordered signature table to scan records.

    Tags depend only on a record's ``(protocol, banner, response)``, so
    the engine memoizes them per distinct triple; the memo grows with
    the distinct texts the engine has seen.
    """

    def __init__(self, signatures: Iterable[TagSignature]) -> None:
        self._signatures: List[TagSignature] = list(signatures)
        self._memo: Dict[Tuple[Any, bytes, bytes], Dict[str, str]] = {}

    def tag_record(self, record: ScanRecord) -> TaggedRecord:
        """Tag one record; first matching signature wins per namespace."""
        key = (record.protocol, record.banner, record.response)
        tags = self._memo.get(key)
        if tags is None:
            tags = self._memo[key] = self._tags_of(
                str(record.protocol), record.banner_text, record.response_text
            )
        # A copy, so a caller editing its tags cannot change the memo.
        return TaggedRecord(record=record, tags=dict(tags))

    def _tags_of(self, protocol: str, banner: str, response: str) -> Dict[str, str]:
        tags: Dict[str, str] = {}
        for signature in self._signatures:
            if signature.matches_text(protocol, banner, response):
                for namespace, value in signature.tags:
                    tags.setdefault(namespace, value)
        return tags

    def __len__(self) -> int:
        return len(self._signatures)
