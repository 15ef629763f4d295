"""Country distribution of misconfigured devices — Table 10.

The paper geolocates misconfigured device addresses with ipgeolocation.io;
we do the same against the study's :class:`~repro.net.geo.GeoRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.misconfig import classify_record
from repro.core.columns import ColumnTable
from repro.core.operator import OperatorBase
from repro.core.taxonomy import Misconfig
from repro.net.geo import GeoRegistry
from repro.scanner.records import ScanRecord

__all__ = [
    "CountryReport",
    "CountryOperator",
    "country_distribution",
    "country_distribution_of",
]


@dataclass
class CountryReport:
    """Devices per country, with the percentage view Table 10 prints."""

    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """All geolocated devices."""
        return sum(self.counts.values())

    def rows(self, geo: GeoRegistry) -> List[Tuple[str, int, float]]:
        """(country name, count, percent) rows, descending by count."""
        total = self.total or 1
        rows = [
            (geo.country_name(code), count, 100.0 * count / total)
            for code, count in self.counts.items()
        ]
        return sorted(rows, key=lambda row: -row[1])

    def share(self, code: str) -> float:
        """Fraction of devices in one country."""
        total = self.total or 1
        return self.counts.get(code, 0) / total


def country_distribution(addresses: Iterable[int], geo: GeoRegistry) -> CountryReport:
    """Roll addresses up into a per-country report."""
    return CountryReport(counts=geo.histogram(addresses))


class CountryOperator(OperatorBase):
    """Table 10 as an online fold: the misconfigured addresses of a scan
    database, geolocated.

    With the fingerprinted honeypots in ``exclude_addresses`` it matches
    the study's ``countries`` artifact
    (``country_distribution(misconfig.all_addresses(), geo)``), because
    both reduce to the same address set.
    """

    name = "country"
    plane = "scan"

    def __init__(
        self,
        geo: GeoRegistry,
        *,
        exclude_addresses: Optional[Set[int]] = None,
    ) -> None:
        super().__init__()
        self._geo = geo
        self._exclude = exclude_addresses or set()
        self._addresses: Set[int] = set()

    def _feed_row(self, row: ScanRecord) -> None:
        if row.address in self._exclude:
            return
        if classify_record(row) != Misconfig.NONE:
            self._addresses.add(row.address)

    def snapshot(self) -> CountryReport:
        return country_distribution(self._addresses, self._geo)


def country_distribution_of(
    database: ColumnTable, geo: GeoRegistry
) -> CountryReport:
    """Table 10 straight from a scan database
    (:class:`CountryOperator` fed once)."""
    operator = CountryOperator(geo)
    operator.feed(database)
    return operator.finalize()
