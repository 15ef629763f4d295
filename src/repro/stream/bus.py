"""The live event bus: ring buffers, alerts, and operator fan-out.

:class:`EventBus` is the spine of the streaming campaign service: plane
stores (or the :class:`~repro.stream.service.CampaignService` replay
loop) publish row batches onto it, the bus feeds every operator
registered for that plane, and bounded :class:`RingBuffer`\\ s keep the
recent events and alerts the ``/campaigns/<id>/tail`` SSE endpoint
serves.  Buffers are cursor-addressed: every appended item gets a
monotonically increasing sequence number, so a tailing client can resume
from where it left off; a cursor that has fallen behind the retention
window raises :class:`~repro.net.errors.CursorLagError` carrying the
oldest retained sequence, so a slow reader learns exactly how much it
missed instead of silently skipping evicted events.

The events ring holds ``(row, plane, sim_time)`` entries and builds each
JSON-able tail payload when a reader asks for it: a replay publishes
every row of the campaign, but only the last ``event_capacity`` are ever
readable, and the rows are immutable ``NamedTuple`` records, so a
payload built on read equals one built on publish.

``EventBus.tap(store, plane)`` subscribes the bus to a live plane store's
batch-emission hook (:meth:`~repro.core.columns.ColumnTable.subscribe`,
shared by the three plane stores), so rows merged through
``append_batch`` (the telescope's ``extend_day`` included) stream
straight onto the bus as they land.

Overload safety
---------------

Two properties keep a misbehaving consumer from hurting the campaign:

* **Operator isolation** — an operator whose ``feed`` raises is counted
  in :attr:`EventBus.operator_errors` and skipped for that batch; the
  exception never propagates back into the publishing store's
  ``append_batch``.
* **Bounded publishing** — with ``queue_capacity > 0`` publishes go
  through a bounded queue drained by a pump thread, governed by
  ``publish_policy``: ``block`` (publisher waits for space — lossless,
  operator parity with batch mode preserved), ``drop_oldest`` (evict the
  stalest queued batch) or ``latest`` (keep only the newest batch).
  Shed batches are counted in :attr:`EventBus.dropped_batches` /
  :attr:`EventBus.dropped_rows`.  ``queue_capacity=0`` (the default)
  publishes synchronously on the caller's thread, exactly as before.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple
from collections import deque

from repro.net.errors import ConfigError, CursorLagError
from repro.stream.operators import Operator

__all__ = ["Alert", "RingBuffer", "EventBus", "PUBLISH_POLICIES"]

#: Accepted values for ``EventBus(publish_policy=...)``.
PUBLISH_POLICIES = ("block", "drop_oldest", "latest")


@dataclass(frozen=True)
class Alert:
    """One incident row in the campaign's alert stream."""

    sim_time: float
    day: int
    plane: str
    kind: str
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sim_time": round(self.sim_time, 3),
            "day": self.day,
            "plane": self.plane,
            "kind": self.kind,
            "message": self.message,
        }


class RingBuffer:
    """Bounded, cursor-addressed buffer of recent items (thread-safe).

    ``append`` assigns each item the next sequence number; ``tail(cursor)``
    returns every retained item with sequence >= cursor plus the cursor to
    pass next time.  Items older than ``capacity`` are evicted —
    :attr:`dropped` counts them, and a tail from a cursor pointing into
    the evicted range raises :class:`CursorLagError` rather than silently
    skipping (cursor ``0`` means "from the oldest retained item" and
    never lags).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: List[Any] = []
        self._start = 0  # sequence number of self._items[0]
        self._lock = threading.Lock()

    @property
    def total(self) -> int:
        """Items ever appended (the next sequence number)."""
        with self._lock:
            return self._start + len(self._items)

    @property
    def dropped(self) -> int:
        """Items evicted from the bounded window since creation."""
        with self._lock:
            return self._start

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def append(self, item: Any) -> int:
        """Add one item; returns its sequence number."""
        with self._lock:
            self._items.append(item)
            if len(self._items) > self.capacity:
                drop = len(self._items) - self.capacity
                del self._items[:drop]
                self._start += drop
            return self._start + len(self._items) - 1

    def extend(self, items: Iterable[Any]) -> None:
        """Add many items under one lock; same accounting as ``append``
        per item."""
        with self._lock:
            self._items.extend(items)
            if len(self._items) > self.capacity:
                drop = len(self._items) - self.capacity
                del self._items[:drop]
                self._start += drop

    def tail(self, cursor: int = 0) -> Tuple[int, List[Any]]:
        """(next_cursor, retained items with sequence >= cursor).

        Raises :class:`CursorLagError` when ``cursor`` points at evicted
        items (``0 < cursor < oldest retained``); the error carries the
        oldest available cursor so the reader can resume from there with
        full knowledge of how many items it missed.
        """
        with self._lock:
            if 0 < cursor < self._start:
                raise CursorLagError(
                    f"cursor {cursor} lags the ring: oldest retained "
                    f"sequence is {self._start} "
                    f"({self._start - cursor} item(s) evicted)",
                    oldest=self._start,
                    dropped=self._start - cursor,
                )
            first = max(cursor, self._start)
            items = list(self._items[first - self._start:])
            return self._start + len(self._items), items


class _EventRing(RingBuffer):
    """The events ring: holds ``(row, plane, sim_time)`` entries and
    builds their tail payloads in :meth:`tail`, outside the lock."""

    def tail(self, cursor: int = 0) -> Tuple[int, List[Dict[str, Any]]]:
        next_cursor, entries = super().tail(cursor)
        return next_cursor, [_payload(*entry) for entry in entries]


class EventBus:
    """Fans published row batches into per-plane operators and buffers."""

    def __init__(
        self,
        *,
        event_capacity: int = 1024,
        alert_capacity: int = 256,
        queue_capacity: int = 0,
        publish_policy: str = "block",
    ) -> None:
        if publish_policy not in PUBLISH_POLICIES:
            raise ConfigError(
                f"publish_policy must be one of {'|'.join(PUBLISH_POLICIES)}, "
                f"got {publish_policy!r}"
            )
        if queue_capacity < 0:
            raise ConfigError(
                f"queue_capacity must be >= 0, got {queue_capacity}"
            )
        self._operators: Dict[str, List[Operator]] = {}
        self.events: RingBuffer = _EventRing(event_capacity)
        self.alerts = RingBuffer(alert_capacity)
        #: Rows published per plane (full counts; the ring only retains
        #: the recent window).
        self.published: Dict[str, int] = {}
        #: ``feed`` exceptions swallowed, per operator name.
        self.operator_errors: Dict[str, int] = {}
        #: Human-readable description of the most recent operator error.
        self.last_operator_error: Optional[str] = None
        #: Batches/rows shed by the ``drop_oldest``/``latest`` policies.
        self.dropped_batches = 0
        self.dropped_rows = 0
        self.queue_capacity = queue_capacity
        self.publish_policy = publish_policy
        self._queue: Deque[Tuple[str, List[Any], float]] = deque()
        self._cond = threading.Condition()
        self._pump: Optional[threading.Thread] = None
        self._pump_busy = False
        self._closed = False

    # -- wiring -----------------------------------------------------------

    def register(self, operator: Operator) -> Operator:
        """Attach an operator to its plane's feed; returns it for chaining."""
        self._operators.setdefault(operator.plane, []).append(operator)
        return operator

    def operators(self, plane: Optional[str] = None) -> List[Operator]:
        if plane is not None:
            return list(self._operators.get(plane, []))
        return [
            operator
            for plane_operators in self._operators.values()
            for operator in plane_operators
        ]

    def tap(self, store: Any, plane: str) -> Callable[[Any], None]:
        """Subscribe this bus to a live store's batch-emission hook.

        Returns the subscribed callback (handy for unsubscribing in
        tests).  Requires the store to expose ``subscribe`` — all three
        plane stores do.
        """
        def on_batch(rows: Any) -> None:
            self.publish(plane, rows)

        store.subscribe(on_batch)
        return on_batch

    # -- publishing -------------------------------------------------------

    def publish(self, plane: str, rows: Any, *, sim_time: float = 0.0) -> int:
        """Feed one batch to the plane's operators and the event ring.

        ``rows`` may be any iterable of row-like objects (it is
        materialized once).  Only the slice that can fit the ring enters
        it, as ``(row, plane, sim_time)`` entries whose tail payloads
        are built when read — a huge batch costs O(capacity) ring work,
        not O(batch).  Returns the row count.

        With ``queue_capacity=0`` (default) delivery happens on the
        caller's thread before returning.  Otherwise the batch is
        enqueued for the pump thread, subject to ``publish_policy``; a
        shed batch still counts toward the return value but is recorded
        in :attr:`dropped_batches`/:attr:`dropped_rows`.
        """
        if not isinstance(rows, list):
            rows = list(rows)
        if self.queue_capacity <= 0:
            self._deliver(plane, rows, sim_time)
            return len(rows)
        with self._cond:
            if self._closed:
                raise ConfigError("publish after EventBus.close()")
            self._ensure_pump()
            if self.publish_policy == "block":
                while len(self._queue) >= self.queue_capacity:
                    self._cond.wait(0.05)
            elif self.publish_policy == "drop_oldest":
                while len(self._queue) >= self.queue_capacity:
                    stale = self._queue.popleft()
                    self.dropped_batches += 1
                    self.dropped_rows += len(stale[1])
            else:  # latest: the queue holds only the newest batches
                if len(self._queue) >= self.queue_capacity:
                    for stale in self._queue:
                        self.dropped_batches += 1
                        self.dropped_rows += len(stale[1])
                    self._queue.clear()
            self._queue.append((plane, rows, sim_time))
            self._cond.notify_all()
        return len(rows)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every enqueued batch has been delivered.

        Returns ``True`` when the queue emptied (immediately for the
        synchronous ``queue_capacity=0`` mode), ``False`` on timeout.
        """
        if self.queue_capacity <= 0:
            return True
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._queue or self._pump_busy:
                if deadline is not None and time.monotonic() >= deadline:
                    return False
                self._cond.wait(0.05)
            return True

    def close(self) -> None:
        """Stop the pump thread (after :meth:`drain` for a clean flush)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        pump = self._pump
        if pump is not None and pump.is_alive():
            pump.join(timeout=2.0)

    def alert(
        self, plane: str, kind: str, message: str,
        *, sim_time: float = 0.0, day: int = 0,
    ) -> Alert:
        """Append one alert to the incident ring and return it."""
        entry = Alert(
            sim_time=sim_time, day=day, plane=plane, kind=kind,
            message=message,
        )
        self.alerts.append(entry)
        return entry

    # -- delivery ---------------------------------------------------------

    def _ensure_pump(self) -> None:
        # Called under self._cond.
        if self._pump is None or not self._pump.is_alive():
            self._pump = threading.Thread(
                target=self._pump_loop, name="repro-bus-pump", daemon=True,
            )
            self._pump.start()

    def _pump_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait(0.1)
                if not self._queue:
                    return  # closed and flushed
                plane, rows, sim_time = self._queue.popleft()
                self._pump_busy = True
                self._cond.notify_all()
            try:
                self._deliver(plane, rows, sim_time)
            finally:
                with self._cond:
                    self._pump_busy = False
                    self._cond.notify_all()

    def _deliver(self, plane: str, rows: List[Any], sim_time: float) -> None:
        for operator in self._operators.get(plane, []):
            try:
                operator.feed(rows)
            except Exception as error:  # isolation: never reach the store
                name = getattr(operator, "name", type(operator).__name__)
                self.operator_errors[name] = (
                    self.operator_errors.get(name, 0) + 1
                )
                self.last_operator_error = (
                    f"{name}: {type(error).__name__}: {error}"
                )
        self.published[plane] = self.published.get(plane, 0) + len(rows)
        self.events.extend(
            (row, plane, sim_time) for row in rows[-self.events.capacity:]
        )


def _payload(row: Any, plane: str, sim_time: float) -> Dict[str, Any]:
    """One events-ring entry as its JSON-able tail payload."""
    try:
        payload = _describe_row(row)
    except Exception:
        payload = {"repr": repr(row)}
    payload["plane"] = plane
    payload["sim_time"] = round(sim_time, 3)
    return payload


def _describe_row(row: Any) -> Dict[str, Any]:
    """A compact JSON-able view of any plane row for the tail stream."""
    for fields in (_EVENT_FIELDS, _SCAN_FIELDS, _FLOW_FIELDS):
        if all(hasattr(row, name) for name in fields[:2]):
            return {
                name: _scalar(getattr(row, name)) for name in fields
                if hasattr(row, name)
            }
    return {"repr": repr(row)}


_EVENT_FIELDS = ("honeypot", "attack_type", "source", "day", "protocol")
_SCAN_FIELDS = ("address", "port", "protocol", "source")
_FLOW_FIELDS = ("src_ip", "dst_ip", "tcp_flags", "packet_count", "day")


def _scalar(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
