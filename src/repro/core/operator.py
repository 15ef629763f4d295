"""The online-operator contract every paper analysis is written against.

Each analysis (:mod:`repro.analysis.misconfig`,
:mod:`repro.analysis.device_type`, :mod:`repro.analysis.country`,
:mod:`repro.analysis.attack_origins`, :mod:`repro.analysis.recurrence`,
:mod:`repro.telescope.rsdos`) is one operator: a row-at-a-time fold over
a plane store's rows
(:class:`~repro.scanner.records.ScanRow`,
:class:`~repro.honeypots.events.EventRow`,
:class:`~repro.telescope.flowtuple.FlowTupleRecord`).  The batch entry
point of an analysis builds its operator, feeds it the whole store once
and returns :meth:`OperatorBase.finalize`; the streaming service feeds
the same class ``append_batch``-sized chunks and reads ``snapshot`` at
any instant.  Chunk boundaries never reach the fold: set/dict state is
keyed on row fields and updated per row, and rows arrive in storage
order either way, so insertion-ordered state (top-k ties, first-seen
dedup) is the same at every chunk size.

:func:`snapshot_digest` canonicalizes any snapshot (dataclasses, enums,
sets, non-string dict keys) into a stable SHA-256 — the spelling the
control API, the validate invariant, and the CI smoke job all compare.

This module imports nothing from the analysis, stream or telescope
packages, so every one of them can import it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, Iterable, Protocol, runtime_checkable

from repro.net.errors import ServeError

__all__ = ["Operator", "OperatorBase", "snapshot_digest"]


@runtime_checkable
class Operator(Protocol):
    """The online-operator contract the event bus fans batches into.

    ``feed`` folds one chunk of rows into internal state; ``snapshot``
    materializes the current result (cheap enough to call per batch);
    ``finalize`` seals the operator — the returned snapshot is the
    campaign's final answer and any further ``feed`` raises
    :class:`~repro.net.errors.ServeError`.
    """

    name: str
    plane: str

    def feed(self, batch: Iterable[Any]) -> None: ...

    def snapshot(self) -> Any: ...

    def finalize(self) -> Any: ...


class OperatorBase:
    """Shared lifecycle/accounting plumbing for the online operators.

    Subclasses implement ``_feed_row(row)`` and ``snapshot()``; the base
    tracks rows/batches/seconds for the operator-throughput metrics and
    enforces the finalize-then-freeze lifecycle.
    """

    name: str = "operator"
    plane: str = "analysis"

    def __init__(self) -> None:
        self.rows_fed = 0
        self.batches_fed = 0
        self.seconds = 0.0
        self.finalized = False

    def feed(self, batch: Iterable[Any]) -> None:
        """Fold one chunk of rows into the operator state."""
        if self.finalized:
            raise ServeError(
                f"operator {self.name!r} is finalized and can no longer "
                "be fed"
            )
        started = time.perf_counter()
        count = 0
        feed_row = self._feed_row
        for row in batch:
            feed_row(row)
            count += 1
        self.rows_fed += count
        self.batches_fed += 1
        self.seconds += time.perf_counter() - started

    def _feed_row(self, row: Any) -> None:
        raise NotImplementedError

    def snapshot(self) -> Any:
        raise NotImplementedError

    def finalize(self) -> Any:
        """Seal the operator and return the final snapshot."""
        self.finalized = True
        return self.snapshot()

    def digest(self) -> str:
        """Canonical SHA-256 of the current snapshot."""
        return snapshot_digest(self.snapshot())


def _canonical(value: Any) -> Any:
    """Reduce a snapshot to order-independent JSON-encodable structure."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                field.name: _canonical(getattr(value, field.name))
                for field in fields(value)
            },
        }
    if isinstance(value, Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        items = [
            (json.dumps(_canonical(key), sort_keys=True), _canonical(item))
            for key, item in value.items()
        ]
        return {key: item for key, item in sorted(items)}
    if isinstance(value, (set, frozenset)):
        return sorted(
            (_canonical(item) for item in value),
            key=lambda item: json.dumps(item, sort_keys=True),
        )
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.hex()
    return repr(value)


def snapshot_digest(snapshot: Any) -> str:
    """A stable SHA-256 over the canonical form of any operator snapshot.

    Equal results (regardless of set/dict iteration order) digest
    equally; this is the value the status API reports and the parity
    check compares against an operator fed its whole store once.
    """
    canonical = json.dumps(
        _canonical(snapshot), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
