"""Row-at-a-time scan merge oracle.

The shipping :meth:`repro.scanner.records.ScanDatabase.merge` dedups on
the key columns and appends the kept column slices.  This oracle is the
loop it replaced: walk both stores' rows, keep each
``(address, port, protocol)`` key's first occurrence, and rebuild a
database from the kept :class:`~repro.scanner.records.ScanRecord` rows.
"""

from __future__ import annotations

from repro.scanner.records import ScanDatabase

__all__ = ["row_merge"]


def row_merge(first: ScanDatabase, second: ScanDatabase) -> ScanDatabase:
    """Union of two databases, first occurrence of each key wins."""
    seen = set()
    rows = []
    for db in (first, second):
        for row in db.iter_rows():
            key = (row.address, row.port, row.protocol)
            if key not in seen:
                seen.add(key)
                rows.append(row)
    return ScanDatabase(rows)
