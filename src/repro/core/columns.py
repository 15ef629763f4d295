"""Column primitives and the unified ColumnStore API.

The three measurement-plane stores — the scan plane's
:class:`~repro.scanner.records.ScanDatabase`, the attack plane's
:class:`~repro.honeypots.events.EventStore` and the telescope plane's
:class:`~repro.telescope.flowtuple.FlowTupleWriter` — all keep their data
as parallel columns.  This module is the layer underneath them:

* **column primitives** (:func:`make_numeric_column` /
  :func:`make_object_column`): numerics live in growable typed NumPy
  buffers (:class:`NumpyColumn`) whose ``view()`` exposes a contiguous
  ``ndarray`` for masked filters, grouped counts and ``lexsort``-based
  canonical ordering; labels, enums and byte payloads in plain lists;
* the :class:`ColumnStore` protocol the analysis consumers type against
  (``where`` / ``count_by`` / ``iter_rows`` / ``sorted_canonical`` /
  ``append_batch``), so they depend on the query surface rather than on a
  concrete store;

**Determinism contract.**  The vector paths produce the bytes a
row-by-row recomputation would: numeric columns hand back native Python
scalars (``NumpyColumn.__getitem__`` unboxes via ``.item()``),
``lexsort`` is stable like Python's ``sorted``, grouped counts keep
first-occurrence order, and the batch PRNG draws
(:meth:`~repro.net.prng.RandomStream.uniform_array`) are bit-equal to
sequential scalar draws.  ``tests/test_columns.py`` checks each vector
path against such a recomputation, and ``tests/plane_goldens.json`` pins
the stores' bytes.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    runtime_checkable,
)

import numpy as np

__all__ = [
    "ColumnStore",
    "NumpyColumn",
    "make_numeric_column",
    "make_object_column",
]

#: Column kind → NumPy dtype.  Unsigned kinds map to ``int64``: every
#: stored value (IPv4 address, port, byte count) fits comfortably, and
#: signed arithmetic avoids surprise wrap-around in vector expressions.
_NP_DTYPES = {"u64": "int64", "u32": "int64", "i64": "int64", "f64": "float64"}


class NumpyColumn:
    """A growable typed column over a NumPy buffer.

    Offers a mutable-sequence surface — ``append`` / ``extend`` /
    indexing (negative indexes included) / iteration — so row views read
    and write through it, while :meth:`view` exposes the live ``ndarray``
    prefix for vectorized masks, grouped counts and ``lexsort``.

    ``__getitem__`` unboxes to native Python scalars: everything read out
    of a column serializes (``json``, string formatting) exactly like the
    plain ``int``/``float`` it stores, which is half of the determinism
    contract.
    """

    __slots__ = ("_data", "_n")

    def __init__(self, dtype: Any, values: Optional[Iterable[Any]] = None) -> None:
        self._data = np.empty(16, dtype=dtype)
        self._n = 0
        if values is not None:
            self.extend(values)

    # -- growth ----------------------------------------------------------

    def _reserve(self, needed: int) -> None:
        capacity = len(self._data)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=self._data.dtype)
        grown[: self._n] = self._data[: self._n]
        self._data = grown

    def append(self, value: Any) -> None:
        self._reserve(self._n + 1)
        self._data[self._n] = value
        self._n += 1

    def extend(self, values: Iterable[Any]) -> None:
        if not isinstance(values, np.ndarray):
            if not isinstance(values, (list, tuple)):
                values = list(values)
            values = np.asarray(values, dtype=self._data.dtype)
        count = len(values)
        self._reserve(self._n + count)
        self._data[self._n : self._n + count] = values
        self._n += count

    # -- vector access ----------------------------------------------------

    def view(self):
        """The live ``ndarray`` prefix (no copy) for vector operations."""
        return self._data[: self._n]

    def take(self, order: Any) -> "NumpyColumn":
        """A new column holding ``self[i] for i in order`` (fancy index)."""
        picked = NumpyColumn.__new__(NumpyColumn)
        picked._data = self._data[: self._n][order]
        picked._n = len(picked._data)
        return picked

    def tolist(self) -> list:
        return self._data[: self._n].tolist()

    # -- sequence surface --------------------------------------------------

    def _index(self, index: int) -> int:
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(f"column index {index} out of range")
        return index

    def __getitem__(self, index: int) -> Any:
        return self._data[self._index(index)].item()

    def __setitem__(self, index: int, value: Any) -> None:
        self._data[self._index(index)] = value

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data[: self._n].tolist())

    def __repr__(self) -> str:
        return f"NumpyColumn({self._data.dtype}, n={self._n})"


def make_numeric_column(
    kind: str, values: Optional[Iterable[Any]] = None
) -> NumpyColumn:
    """A numeric column of ``kind`` (``u64``/``u32``/``i64``/``f64``)."""
    return NumpyColumn(_NP_DTYPES[kind], values)


def make_object_column(values: Optional[Iterable[Any]] = None) -> list:
    """An object column (labels, enums, byte payloads) — a plain list;
    vector passes over object columns gain nothing from NumPy's object
    dtype."""
    return list(values) if values is not None else []


def first_occurrence_counts(view) -> Dict[Any, int]:
    """Grouped counts of a numeric ``ndarray`` in first-occurrence order.

    Equal to a ``dict.get`` counting loop over the values: the result
    dict is keyed in the order values first appear, so serialized
    artifacts do not depend on how the counts were computed.
    """
    uniques, first_positions, counts = np.unique(
        view, return_index=True, return_counts=True
    )
    order = np.argsort(first_positions, kind="stable")
    return dict(
        zip(uniques[order].tolist(), counts[order].tolist())
    )


@runtime_checkable
class ColumnStore(Protocol):
    """The unified query surface of the three measurement-plane stores.

    Analysis consumers (misconfig, country, device type, attack origins,
    recurrence, RSDoS) accept any store satisfying this protocol instead of
    importing a concrete store class.  ``where`` narrows to a new store of
    the same type, ``count_by`` groups with optional distinct-value
    counting, ``iter_rows`` yields row views in insertion order,
    ``sorted_canonical`` re-orders into the plane's canonical merge order
    and ``append_batch`` ingests many rows in one columnar pass.
    """

    def __len__(self) -> int: ...

    def append_batch(self, rows: Iterable[Any]) -> int: ...

    def where(self, **filters: Any) -> "ColumnStore": ...

    def count_by(
        self, column: str, *, unique: Optional[str] = None
    ) -> Dict[Any, int]: ...

    def iter_rows(self) -> Iterator[Any]: ...

    def sorted_canonical(self) -> "ColumnStore": ...

    def column(self, name: str) -> Any: ...

