"""Column primitives and the table the three plane stores are written on.

The three measurement-plane stores — the scan plane's
:class:`~repro.scanner.records.ScanDatabase`, the attack plane's
:class:`~repro.honeypots.events.EventStore` and the telescope plane's
:class:`~repro.telescope.flowtuple.FlowTupleWriter` — are
:class:`ColumnTable` subclasses.  This module holds:

* **column primitives** (:func:`make_numeric_column` /
  :func:`make_object_column`): numerics live in growable typed NumPy
  buffers (:class:`NumpyColumn`) whose ``view()`` exposes a contiguous
  ``ndarray`` for masked filters and grouped counts; labels, enums and
  byte payloads in plain lists;
* :class:`ColumnTable`, the append-only table: a subclass declares its
  ``NamedTuple`` row type, which fields are numeric (and of which kind)
  and its canonical merge key, and inherits ingestion (row-wise,
  table-wise and the columnar :meth:`ColumnTable.from_columns`
  constructor), observers, row access, filters, grouped counts,
  canonical ordering and JSONL export.  The analysis consumers type
  against it.

**Determinism contract.**  The vector paths produce the bytes a
row-by-row recomputation would: numeric columns hand back native Python
scalars (``NumpyColumn.__getitem__`` unboxes via ``.item()``, and the
compact ``i32``/``bool`` kinds unbox to ``int``/``bool`` too),
``lexsort`` is stable like Python's ``sorted``, grouped counts keep
first-occurrence order, and the batch PRNG draws
(:meth:`~repro.net.prng.RandomStream.uniform_array`) are bit-equal to
sequential scalar draws.  ``tests/test_columns.py`` checks each vector
path against such a recomputation, and ``tests/plane_goldens.json`` pins
the stores' bytes.
"""

from __future__ import annotations

from itertools import islice
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
)

import numpy as np

__all__ = [
    "ColumnTable",
    "NumpyColumn",
    "joined_pieces",
    "make_numeric_column",
    "make_object_column",
]

#: Column kind → NumPy dtype.  Unsigned kinds map to ``int64``: every
#: stored value (IPv4 address, port, byte count) fits comfortably, and
#: signed arithmetic avoids surprise wrap-around in vector expressions.
#: The compact kinds serve high-volume tables: ``i32`` for small fields
#: (ports, TTLs, flags, lengths) and ``bool`` for flags, both unboxing to
#: the same native ``int``/``bool`` the wide kinds would.
_NP_DTYPES = {
    "u64": "int64", "u32": "int64", "i64": "int64", "f64": "float64",
    "i32": "int32", "bool": "bool",
}

#: Rows :meth:`ColumnTable.iter_rows` materializes per slice, so walking a
#: table never unboxes a whole column at once.
_ROW_SLICE = 4096

#: Lines a streamed serialization (:func:`joined_pieces`, the FlowTuple
#: encoder) holds per slice.  A slice's Python objects (about twenty per
#: flow row) stay near a megabyte, a small fraction of any plane's text.
_TEXT_SLICE = 1024


class NumpyColumn:
    """A growable typed column over a NumPy buffer.

    Offers a mutable-sequence surface — ``append`` / ``extend`` /
    indexing (negative indexes included) / iteration — while :meth:`view`
    exposes the live ``ndarray`` prefix for vectorized masks and grouped
    counts.

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

    def _reserve(self, needed: int, *, exact: bool = False) -> None:
        """Grow the buffer to hold ``needed`` values: by doubling for
        appends, or to exactly ``needed`` for a known volume."""
        if needed <= len(self._data):
            return
        capacity = needed if exact else max(16, len(self._data))
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

    @classmethod
    def adopt(cls, array: Any) -> "NumpyColumn":
        """A full column over ``array`` itself (no copy)."""
        column = cls.__new__(cls)
        column._data = array
        column._n = len(array)
        return column

    def take(self, order: Any) -> "NumpyColumn":
        """A new column holding ``self[i] for i in order`` (fancy index)."""
        return NumpyColumn.adopt(self.view()[order])

    def __reduce__(self) -> tuple:
        # Pickle the live prefix only: the growth buffer's slack is
        # uninitialised memory, and the copy restores at its exact size.
        return NumpyColumn.adopt, (self.view(),)

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
    """A numeric column of ``kind`` (a key of ``_NP_DTYPES``)."""
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


#: Collection types a ``where`` filter treats as a membership set.
_COLLECTIONS = (set, frozenset, list, tuple, range)


class ColumnTable:
    """An append-only table with one column per field of :attr:`ROW`.

    A subclass declares three things and inherits the rest:

    * ``ROW`` — the plane's ``NamedTuple`` record type; every row the
      table yields is an instance of it, and ``add`` / ``extend`` /
      ``append_batch`` take tuples in its field order;
    * ``NUMERIC`` — numeric field → kind (``u64``/``u32``/``i64``/``f64``,
      or the compact ``i32``/``bool``); those fields get a
      :class:`NumpyColumn`, every other field a list;
    * ``canonical_key(row)`` — a static method giving the plane's merge
      order, shared by the plane's merge sort and :meth:`sorted_canonical`.
    """

    ROW: ClassVar[Any]
    NUMERIC: ClassVar[Dict[str, str]] = {}

    def __init__(self, records: Optional[Iterable[tuple]] = None) -> None:
        #: Batched ingestions performed (one per :meth:`append_batch`
        #: call); surfaced through ``StudyMetrics`` so ``--metrics-json``
        #: shows whether the columnar merge path ran.
        self.batch_appends = 0
        self._columns: Dict[str, Any] = {
            name: make_numeric_column(self.NUMERIC[name])
            if name in self.NUMERIC else make_object_column()
            for name in self.ROW._fields
        }
        self._observers: List[Callable[[list], None]] = []
        if records is not None:
            self.extend(records)

    @staticmethod
    def canonical_key(row: tuple) -> tuple:
        """The plane's merge-order key for one row tuple."""
        raise NotImplementedError

    # -- ingestion ---------------------------------------------------------

    def subscribe(self, callback: Callable[[list], None]) -> Callable:
        """Register a batch-emission observer.

        ``callback`` receives the rows of every chunk ingested through
        :meth:`append_batch` — the streaming layer's live tap
        (:meth:`~repro.stream.bus.EventBus.tap`).  ``add`` and ``extend``
        never notify.  Returns the callback for :meth:`unsubscribe`.
        """
        self._observers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable) -> None:
        """Remove a previously subscribed observer."""
        self._observers.remove(callback)

    def add(self, record: tuple) -> None:
        """Append one row (a tuple in ``ROW`` field order)."""
        for column, value in zip(self._columns.values(), record):
            column.append(value)

    def extend(self, records: Iterable[tuple]) -> None:
        """Append many rows in one columnar pass (one ``extend`` per
        column, a single buffer copy for the numeric ones)."""
        for column, values in zip(self._columns.values(), zip(*records)):
            column.extend(values)

    def reserve(self, rows: int) -> None:
        """Size the numeric columns for exactly ``rows`` more rows: a known
        volume of appends then costs one buffer per column instead of a
        doubling series whose discarded buffers fragment the heap."""
        for column in self._columns.values():
            if isinstance(column, NumpyColumn):
                column._reserve(len(column) + rows, exact=True)

    def _extend_table(self, table: "ColumnTable") -> None:
        """Append every row of ``table`` (same ``ROW``) column by column,
        without building row tuples."""
        for name, column in table._columns.items():
            self._columns[name].extend(
                column.view() if isinstance(column, NumpyColumn) else column
            )

    @classmethod
    def from_columns(cls, columns: Mapping[str, Any]) -> "ColumnTable":
        """A table built from one whole column per field of ``ROW``.

        Numeric values (arrays or sequences) are cast to their kind's
        dtype once and adopted without a growth buffer; the others become
        lists.  Every column must have the same length.
        """
        if set(columns) != set(cls.ROW._fields):
            raise ValueError(
                f"from_columns needs exactly the fields {cls.ROW._fields}"
            )
        table = cls()
        for name, values in columns.items():
            table._columns[name] = (
                NumpyColumn.adopt(np.asarray(
                    values, dtype=_NP_DTYPES[cls.NUMERIC[name]]
                ))
                if name in cls.NUMERIC else list(values)
            )
        if len({len(column) for column in table._columns.values()}) > 1:
            raise ValueError("from_columns needs columns of one length")
        return table

    def append_batch(self, rows: Any) -> int:
        """Append a batch — row tuples, or a table of the same ``ROW``
        (:meth:`_extend_table`) — counted in ``batch_appends`` and
        announced to the observers; returns the row count."""
        if isinstance(rows, ColumnTable):
            self._extend_table(rows)
        else:
            if not isinstance(rows, list):
                rows = list(rows)
            self.extend(rows)
        self.batch_appends += 1
        if self._observers and len(rows):
            emitted = list(self._take(range(len(self) - len(rows), len(self))))
            for callback in self._observers:
                callback(emitted)
        return len(rows)

    # -- row access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns[self.ROW._fields[0]])

    def row(self, index: int) -> Any:
        """One row by position."""
        if not 0 <= index < len(self):
            raise IndexError(f"row index {index} out of range")
        return self.ROW._make(
            column[index] for column in self._columns.values()
        )

    def iter_rows(self) -> Iterator[Any]:
        """The rows in insertion order, unboxed :data:`_ROW_SLICE` rows at
        a time (a walk over a large table never holds a whole column as
        Python objects)."""
        make = self.ROW._make
        columns = list(self._columns.values())
        for start in range(0, len(self), _ROW_SLICE):
            stop = start + _ROW_SLICE
            yield from map(make, zip(*(
                column.view()[start:stop].tolist()
                if isinstance(column, NumpyColumn) else column[start:stop]
                for column in columns
            )))

    def __iter__(self) -> Iterator[Any]:
        return self.iter_rows()

    def column(self, name: str) -> Any:
        """Direct (read-only by convention) access to one field's column:
        a :class:`NumpyColumn` for numeric fields, a list otherwise."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"no such column: {name!r}") from None

    # -- queries -------------------------------------------------------------

    def where(self, **filters: Any) -> "ColumnTable":
        """New table with the rows matching every ``field=value`` filter.

        A value is a scalar (equality) or a collection (membership).
        Numeric fields collapse to one boolean mask over the columns, then
        the object fields test the surviving positions in insertion order.
        """
        mask = None
        object_filters = []
        for name, value in filters.items():
            column = self.column(name)
            if not isinstance(column, NumpyColumn):
                object_filters.append((column, value))
                continue
            view = column.view()
            if isinstance(value, _COLLECTIONS):
                hit = np.isin(view, list(value))
            else:
                hit = view == value
            mask = hit if mask is None else mask & hit
        positions: Any = (
            range(len(self)) if mask is None else np.flatnonzero(mask).tolist()
        )
        for column, value in object_filters:
            if isinstance(value, _COLLECTIONS):
                allowed = set(value)
                positions = [i for i in positions if column[i] in allowed]
            else:
                positions = [i for i in positions if column[i] == value]
        return self._take(positions)

    def count_by(
        self, column: str, *, unique: Optional[str] = None
    ) -> Dict[Any, int]:
        """Row (or distinct-value) counts grouped by one column.

        ``count_by("protocol")`` counts rows per protocol;
        ``count_by("protocol", unique="address")`` counts *distinct
        addresses* per protocol.  Numeric key columns group via
        ``np.unique`` (reordered to first occurrence, the dict-insertion
        order of a counting loop); object columns keep the Python loop.
        """
        keys = self.column(column)
        if unique is None:
            if isinstance(keys, NumpyColumn):
                return first_occurrence_counts(keys.view())
            counts: Dict[Any, int] = {}
            for key in keys:
                counts[key] = counts.get(key, 0) + 1
            return counts
        groups: Dict[Any, Set[Any]] = {}
        for key, value in zip(keys, self.column(unique)):
            groups.setdefault(key, set()).add(value)
        return {key: len(members) for key, members in groups.items()}

    def _take(self, positions: Iterable[int]) -> "ColumnTable":
        """New table holding the rows at ``positions``, in that order."""
        result = type(self)()
        order = np.asarray(positions, dtype=np.intp)
        indexes = order.tolist()
        for name, column in self._columns.items():
            result._columns[name] = (
                column.take(order) if isinstance(column, NumpyColumn)
                else [column[i] for i in indexes]
            )
        return result

    def sorted_canonical(self) -> "ColumnTable":
        """New table in the plane's canonical merge order: a stable sort on
        :meth:`canonical_key`, the permutation the plane's merge applies."""
        result = type(self)()
        result.extend(sorted(self.iter_rows(), key=self.canonical_key))
        return result

    def iter_jsonl(self) -> Iterator[str]:
        """Each row's JSON line (``ROW.to_json``), in insertion order."""
        return map(self.ROW.to_json, self.iter_rows())

    def to_jsonl(self) -> str:
        """Serialize all rows as JSONL."""
        return "\n".join(self.iter_jsonl())


def joined_pieces(lines: Iterable[str]) -> Iterator[str]:
    r"""``"\n".join(lines)`` in pieces of at most :data:`_TEXT_SLICE` lines:
    the pieces concatenate to the joined text (no trailing newline,
    nothing for no lines), which is never held whole."""
    lines = iter(lines)
    chunk = list(islice(lines, _TEXT_SLICE))
    while chunk:
        yield "\n".join(chunk)
        chunk = list(islice(lines, _TEXT_SLICE))
        if chunk:
            yield "\n"
