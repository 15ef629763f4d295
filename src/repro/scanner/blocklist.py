"""Scan blocklists: ZMap defaults and the FireHOL Europe list.

The paper's scans "followed the default blocklist provided by ZMap and the
European blocklist from the FireHOL Project" (Section 3.1.1, Appendix A.3).
We model both:

* :func:`zmap_default_blocklist` — the reserved/special-purpose ranges ZMap
  never probes (we reuse the substrate's reserved blocks);
* :class:`GeoBlocklist` — blocks by registry country, which is how a
  continental list like FireHOL's behaves at our block granularity.

A :class:`CidrBlocklist` merges its CIDRs once into sorted, disjoint
``[first, last]`` intervals, so a membership test is one bisection
rather than a pass over every block.

Blocklists compose: a :class:`CompositeBlocklist` blocks when any member
does.  The interplay the benchmarks explore: a ZMap scan behind the Europe
blocklist misses EU devices, and the open-dataset correlation step is what
restores them to the misconfiguration totals.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, List, Sequence

from repro.net.geo import GeoRegistry
from repro.net.ipv4 import RESERVED_BLOCKS, CidrBlock

__all__ = [
    "Blocklist",
    "CidrBlocklist",
    "GeoBlocklist",
    "CompositeBlocklist",
    "zmap_default_blocklist",
    "EU_COUNTRIES",
]

#: Countries in our registry that a European blocklist covers.
EU_COUNTRIES = frozenset({"DE", "FR", "GB"})


class Blocklist:
    """Interface: does this address get probed?"""

    def blocks(self, address: int) -> bool:
        """True when the address must not be probed."""
        raise NotImplementedError


class CidrBlocklist(Blocklist):
    """Blocks membership in a set of CIDR ranges."""

    def __init__(self, blocks: Sequence[CidrBlock]) -> None:
        self._blocks: List[CidrBlock] = list(blocks)
        # Sorted, disjoint intervals: overlapping and adjacent blocks merge.
        self._firsts: List[int] = []
        self._lasts: List[int] = []
        for block in sorted(self._blocks, key=lambda b: (b.first, b.last)):
            if self._lasts and block.first <= self._lasts[-1] + 1:
                self._lasts[-1] = max(self._lasts[-1], block.last)
            else:
                self._firsts.append(block.first)
                self._lasts.append(block.last)

    def blocks(self, address: int) -> bool:
        index = bisect_right(self._firsts, address) - 1
        return index >= 0 and address <= self._lasts[index]

    def __len__(self) -> int:
        return len(self._blocks)


class GeoBlocklist(Blocklist):
    """Blocks by registry country (models continental lists like FireHOL EU)."""

    def __init__(self, geo: GeoRegistry, countries: Iterable[str]) -> None:
        self._geo = geo
        self._countries = frozenset(countries)

    def blocks(self, address: int) -> bool:
        return self._geo.country_of(address) in self._countries


class CompositeBlocklist(Blocklist):
    """Blocks when any member blocklist does."""

    def __init__(self, members: Sequence[Blocklist]) -> None:
        self._members = list(members)

    def blocks(self, address: int) -> bool:
        return any(member.blocks(address) for member in self._members)


def zmap_default_blocklist() -> CidrBlocklist:
    """ZMap's stock blocklist: reserved and special-purpose space."""
    return CidrBlocklist(RESERVED_BLOCKS)
