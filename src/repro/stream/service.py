"""The long-lived campaign service: paced generation + incremental analysis.

:class:`CampaignService` turns the batch study into something you can
*watch*.  One campaign runs in two stages:

1. **generate** — the deterministic planes materialize through the
   ordinary phase DAG (so caching, sharding, journals, fault injection
   and the byte-identity guarantees all still apply); the engine's
   ``on_phase`` hook surfaces per-phase progress live.
2. **stream** — the finished plane stores are replayed onto the
   :class:`~repro.stream.bus.EventBus` in storage order as
   ``batch_size``-row chunks, paced to ``events_per_second`` against a
   simulated clock whose day boundaries come from the rows themselves.
   Each chunk feeds the registered online operators
   (:mod:`repro.stream.operators`); day boundaries emit alerts into the
   incident ring (new RSDoS detections, newly recurring sources, DoS
   source-set growth).

Replaying the deterministically generated stores — rather than sampling
a second PRNG — is what makes the acceptance guarantee trivial to state:
the events a live campaign streams are *exactly* the events the batch
run produces for the same config, and a batch analysis is its operator
fed the whole store once, so the chunk-fed final snapshots must equal
the batch results.  :meth:`CampaignService.verify_against_batch` (also
registered as the ``stream.snapshots_match_batch`` validate invariant)
feeds a fresh twin of each operator its whole plane once and compares
digests.

Pacing never changes bytes: ``events_per_second=0`` (the default)
streams unpaced, and any positive rate only inserts wall-clock sleeps
between chunks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.net.errors import ConfigError, ServeError
from repro.stream.bus import PUBLISH_POLICIES, EventBus
from repro.stream.operators import (
    AttackOriginsOperator,
    CountryOperator,
    DeviceTypeOperator,
    MisconfigOperator,
    Operator,
    RecurrenceOperator,
    RsdosOperator,
    snapshot_digest,
)

__all__ = [
    "StreamConfig",
    "CampaignService",
    "default_operators",
    "plane_rows",
    "snapshots_match_batch",
]

#: Streaming order: scan world first, then the attack month, then the
#: telescope capture — the same order the paper's analysis consumes them.
_PLANES = ("scan", "attacks", "telescope")


@dataclass
class StreamConfig:
    """Pacing and buffering knobs for one streamed campaign.

    ``events_per_second`` throttles the replay (0 = unpaced);
    ``batch_size`` is the chunk granularity the operators are fed at —
    any value yields identical final snapshots (the operators are
    chunk-invariant), it only trades tail latency against overhead.

    ``queue_capacity``/``publish_policy`` configure the bus's bounded
    publish queue (see :class:`~repro.stream.bus.EventBus`): 0 keeps the
    synchronous in-thread delivery, a positive capacity moves operator
    feeding onto the bus pump thread.  Batch parity of the final operator
    snapshots is guaranteed for ``block`` (lossless); the lossy policies
    deliberately shed load and the shed rows are counted on the bus.
    Async delivery also trades away the chunk-granular operator alerts
    (the watcher would race the pump); day-close and campaign alerts
    remain.

    ``stall_timeout`` arms the watchdog: when the campaign thread makes
    no progress (no phase, batch, or clock advance) for longer than this
    many seconds, a ``watchdog-stall`` alert lands on the incident ring
    and ``status()["stalled"]`` flips true (0 disables the watchdog).
    """

    events_per_second: float = 0.0
    batch_size: int = 256
    event_capacity: int = 1024
    alert_capacity: int = 256
    queue_capacity: int = 0
    publish_policy: str = "block"
    stall_timeout: float = 0.0

    def validate(self) -> None:
        if self.events_per_second < 0:
            raise ConfigError(
                "events_per_second must be >= 0 (0 streams unpaced), "
                f"got {self.events_per_second}"
            )
        if self.batch_size <= 0:
            raise ConfigError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.event_capacity <= 0 or self.alert_capacity <= 0:
            raise ConfigError("ring capacities must be positive")
        if self.queue_capacity < 0:
            raise ConfigError(
                f"queue_capacity must be >= 0, got {self.queue_capacity}"
            )
        if self.publish_policy not in PUBLISH_POLICIES:
            raise ConfigError(
                "publish_policy must be one of "
                f"{'|'.join(PUBLISH_POLICIES)}, got {self.publish_policy!r}"
            )
        if self.stall_timeout < 0:
            raise ConfigError(
                "stall_timeout must be >= 0 (0 disables the watchdog), "
                f"got {self.stall_timeout}"
            )


def default_operators(results, *, exclude_honeypots: bool = True):
    """The stock operator set over finished study artifacts.

    Returns the six online operators wired exactly like the analyses
    the study runs: the scan operators exclude the fingerprinted
    honeypots (as the classify phase does for Table 5), the attack
    operators share the study's geo registry and ExoneraTor store, and
    the telescope operator uses the detector defaults.
    """
    exclude = (
        results.fingerprints.addresses()
        if exclude_honeypots and results.fingerprints is not None
        else set()
    )
    return [
        MisconfigOperator(exclude_addresses=exclude),
        DeviceTypeOperator(),
        CountryOperator(results.geo, exclude_addresses=exclude),
        AttackOriginsOperator(results.geo, results.exonerator),
        RecurrenceOperator(),
        RsdosOperator(),
    ]


class CampaignService:
    """Drives one campaign: generate deterministically, stream live.

    The service owns a :class:`~repro.core.study.Study`, an
    :class:`~repro.stream.bus.EventBus`, and a background thread.  Life
    cycle: ``pending`` → ``generating`` → ``streaming`` → ``done``
    (or ``stopped`` after :meth:`stop`, or ``failed`` with ``error``
    set).  All status reads are safe from any thread.
    """

    def __init__(
        self,
        config: Optional[StudyConfig] = None,
        stream: Optional[StreamConfig] = None,
        *,
        operators: Optional[Sequence[Operator]] = None,
        study: Optional[Study] = None,
    ) -> None:
        self.stream = stream or StreamConfig()
        self.stream.validate()
        self.study = study or Study(config or StudyConfig.quick())
        self.config = self.study.config
        self.bus = EventBus(
            event_capacity=self.stream.event_capacity,
            alert_capacity=self.stream.alert_capacity,
            queue_capacity=self.stream.queue_capacity,
            publish_policy=self.stream.publish_policy,
        )
        self._operators = list(operators) if operators is not None else None
        self.state = "pending"
        self.error: Optional[str] = None
        self.sim_time = 0.0
        self.sim_day = -1
        self.current_plane: Optional[str] = None
        self.phases_done: List[str] = []
        self.stalled = False
        self._heartbeat = time.monotonic()
        self._progress: Dict[str, Dict[str, int]] = {}
        self._final_digests: Optional[Dict[str, str]] = None
        self._stop = threading.Event()
        self._watchdog_stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "CampaignService":
        """Run the campaign on a daemon thread; returns self."""
        with self._lock:
            if self._thread is not None:
                raise ServeError("campaign already started")
            self._thread = threading.Thread(
                target=self.run, name="repro-campaign", daemon=True
            )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Ask the campaign to stop at the next chunk boundary."""
        self._stop.set()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful stop: halt the campaign and flush the publish queue.

        Requests a stop, waits for every queued batch to reach the
        operators and rings, and joins the campaign thread.  Returns
        ``True`` when both the bus queue emptied and the thread exited
        within ``timeout`` (``None`` waits indefinitely).
        """
        self.stop()
        started = time.monotonic()
        drained = self.bus.drain(timeout)
        remaining = timeout
        if timeout is not None:
            remaining = max(0.0, timeout - (time.monotonic() - started))
        self.join(remaining)
        thread = self._thread
        return drained and (thread is None or not thread.is_alive())

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "stopped", "failed")

    def run(self) -> None:
        """The campaign body (synchronous; ``start`` wraps it in a thread)."""
        self._start_watchdog()
        try:
            self._generate()
            if not self._stop.is_set():
                self._stream_planes()
            if self._stop.is_set() and self.state != "done":
                self.state = "stopped"
        except Exception as error:  # surfaced via status, not a dead thread
            self.error = f"{type(error).__name__}: {error}"
            self.state = "failed"
        finally:
            self._stop_watchdog()
            # Flush whatever the bounded queue still holds so operators
            # and rings reflect every published batch, then park the pump.
            self.bus.drain(timeout=5.0)
            self.bus.close()
            engine = self.study.engine
            if engine.on_phase is not None:
                engine.on_phase = None

    # -- the stall watchdog ----------------------------------------------

    def _beat(self) -> None:
        """Record forward progress for the stall watchdog."""
        self._heartbeat = time.monotonic()

    def _start_watchdog(self) -> None:
        if self.stream.stall_timeout <= 0:
            return
        self._beat()
        self._watchdog_stop.clear()
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="repro-campaign-watchdog",
            daemon=True,
        )
        self._watchdog.start()

    def _stop_watchdog(self) -> None:
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=2.0)

    def _watchdog_loop(self) -> None:
        limit = self.stream.stall_timeout
        interval = max(0.05, min(limit / 4.0, 1.0))
        while not self._watchdog_stop.wait(interval):
            if self.finished:
                return
            age = time.monotonic() - self._heartbeat
            if age > limit:
                if not self.stalled:
                    self.stalled = True
                    self.bus.alert(
                        "service", "watchdog-stall",
                        f"no campaign progress for {age:.1f}s "
                        f"(stall timeout {limit:g}s)",
                        sim_time=self.sim_time, day=self.sim_day,
                    )
            else:
                self.stalled = False

    # -- stage 1: deterministic generation --------------------------------

    def _generate(self) -> None:
        self.state = "generating"
        engine = self.study.engine

        def on_phase(metric) -> None:
            self.phases_done.append(metric.phase)
            self._beat()

        engine.on_phase = on_phase
        # The artifacts the operators and the replay need; everything
        # else (intel joins, reports) stays on demand.
        self.study.run_classification()
        if self._stop.is_set():
            return
        self.study.run_attacks()
        if self._stop.is_set():
            return
        self.study.run_telescope()
        if self._stop.is_set():
            return
        self.study.build_intel()

    # -- stage 2: the live stream -----------------------------------------

    def _ensure_operators(self) -> List[Operator]:
        if self._operators is None:
            self._operators = default_operators(self.study.results)
        for operator in self._operators:
            self.bus.register(operator)
        return self._operators

    def _stream_planes(self) -> None:
        operators = self._ensure_operators()
        self.state = "streaming"
        eps = self.stream.events_per_second
        size = self.stream.batch_size
        # Under async publishing the chunk-granular watcher would read
        # operator state while the pump thread feeds it; skip it there
        # (operators are not thread-safe) — day/campaign alerts remain.
        watch_chunks = self.stream.queue_capacity <= 0
        for plane in _PLANES:
            rows = list(plane_rows(self.study.results, plane))
            progress = {"rows_total": len(rows), "rows_fed": 0, "batches": 0}
            self._progress[plane] = progress
            self.current_plane = plane
            watcher = _AlertWatcher(self, plane) if watch_chunks else None
            for start in range(0, len(rows), size):
                if self._stop.is_set():
                    return
                batch = rows[start:start + size]
                self._advance_clock(plane, batch)
                self.bus.publish(plane, batch, sim_time=self.sim_time)
                progress["rows_fed"] += len(batch)
                progress["batches"] += 1
                self._beat()
                if watcher is not None:
                    watcher.after_batch(batch)
                if eps > 0:
                    self._pace(len(batch) / eps)
            if watcher is not None:
                watcher.close()
        self.current_plane = None
        # Every queued batch must reach the operators before their
        # snapshots are sealed.
        self.bus.drain()
        self._finalize(operators)
        self.state = "done"

    def _advance_clock(self, plane: str, batch: Sequence[Any]) -> None:
        """Move the simulated clock to the batch's last row.

        Scan rows carry wall timestamps of the sweep; attack and
        telescope rows carry campaign-relative days, which define the
        simulated month the tail stream narrates.
        """
        last = batch[-1]
        day = getattr(last, "day", None)
        if plane == "scan" or day is None:
            return
        if day != self.sim_day:
            if self.sim_day >= 0 and day > self.sim_day:
                self.bus.alert(
                    plane, "day-close",
                    f"simulated day {self.sim_day} closed",
                    sim_time=self.sim_time, day=self.sim_day,
                )
            self.sim_day = day
        timestamp = getattr(last, "timestamp", None)
        self.sim_time = (
            float(timestamp) if timestamp is not None
            else float(getattr(last, "time", day * 86_400))
        )

    def _pace(self, delay: float) -> None:
        """Sleep ``delay`` seconds in stop-aware slices."""
        deadline = time.monotonic() + delay
        while not self._stop.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._stop.wait(min(remaining, 0.05))

    def _finalize(self, operators: Sequence[Operator]) -> None:
        digests: Dict[str, str] = {}
        for operator in operators:
            final = operator.finalize()
            digests[operator.name] = snapshot_digest(final)
            self.study.metrics.record_operator(operator)
        self.study.metrics.record_bus(self.bus)
        self._final_digests = digests
        self.bus.alert(
            "service", "campaign-done",
            "campaign complete; final snapshots sealed",
            sim_time=self.sim_time, day=self.sim_day,
        )

    # -- observation ------------------------------------------------------

    def operators(self) -> List[Operator]:
        return list(self._operators or [])

    def operator(self, name: str) -> Operator:
        for candidate in self._operators or []:
            if candidate.name == name:
                return candidate
        raise ServeError(f"no operator named {name!r} in this campaign")

    def final_digests(self) -> Dict[str, str]:
        """Operator name → canonical snapshot digest (after ``done``)."""
        if self._final_digests is None:
            raise ServeError(
                "campaign has no final digests yet (state "
                f"{self.state!r}); wait for state 'done'"
            )
        return dict(self._final_digests)

    def status(self) -> Dict[str, Any]:
        """The control API's status document (JSON-able, thread-safe)."""
        status: Dict[str, Any] = {
            "state": self.state,
            "seed": self.config.seed,
            "events_per_second": self.stream.events_per_second,
            "batch_size": self.stream.batch_size,
            "sim_day": self.sim_day,
            "sim_time": round(self.sim_time, 3),
            "current_plane": self.current_plane,
            "phases_done": list(self.phases_done),
            "planes": {
                plane: dict(progress)
                for plane, progress in self._progress.items()
            },
            "events_streamed": sum(self.bus.published.values()),
            "alerts_total": self.bus.alerts.total,
            "stalled": self.stalled,
            "publish_policy": self.stream.publish_policy,
            "queue_capacity": self.stream.queue_capacity,
            "dropped_batches": self.bus.dropped_batches,
            "dropped_rows": self.bus.dropped_rows,
            "operator_errors": sum(self.bus.operator_errors.values()),
            # Compact supervision roll-up, so operators can see restarts
            # and sheds in a status poll without reading --metrics-json.
            "metrics": {
                "supervisor": {
                    "pool_restarts": sum(
                        1 for event in self.study.metrics.supervisor
                        if event.action == "pool-restart"
                    ),
                    "downgrades": sum(
                        1 for event in self.study.metrics.supervisor
                        if event.action == "downgrade"
                    ),
                },
                "quarantined": len(self.study.metrics.quarantined),
                "journal_write_errors": (
                    self.study.metrics.journal_write_errors
                ),
                "stalls": len(self.study.metrics.stalls),
                "bus": {
                    "published": sum(self.bus.published.values()),
                    "dropped_batches": self.bus.dropped_batches,
                    "dropped_rows": self.bus.dropped_rows,
                    "events_evicted": self.bus.events.dropped,
                    "alerts_evicted": self.bus.alerts.dropped,
                    "operator_errors": sum(
                        self.bus.operator_errors.values()
                    ),
                },
            },
        }
        if self.error is not None:
            status["error"] = self.error
        if self._final_digests is not None:
            status["final_digests"] = dict(self._final_digests)
        return status

    # -- batch parity -----------------------------------------------------

    def verify_against_batch(self) -> List[str]:
        """Check every operator snapshot against the batch analysis.

        Returns mismatch messages (empty = parity holds).  Must run
        after the stream finished (``done``); the batch analysis is each
        operator's twin fed the same finished store the stream replayed,
        in one call.
        """
        if self.state != "done":
            raise ServeError(
                f"verify_against_batch needs state 'done', got {self.state!r}"
            )
        return snapshots_match_batch(
            self.study.results, {op.name: op for op in self._operators or []}
        )


def plane_rows(results, plane: str) -> Iterator[Any]:
    """One plane store's rows in storage order (``scan``, ``attacks`` or
    ``telescope``)."""
    if plane == "scan":
        return results.merged_db.iter_rows()
    if plane == "attacks":
        return results.schedule.log.iter_rows()
    return results.telescope.writer.records()


def snapshots_match_batch(results, operators: Dict[str, Operator]) -> List[str]:
    """Compare fed operators with twins fed their whole plane at once.

    ``operators`` maps operator name → fed operator; any of the six
    stock names present is checked against a fresh twin from
    :func:`default_operators` fed the finished plane store in one call —
    the batch analysis — and others are ignored.  Shared by
    :meth:`CampaignService.verify_against_batch` and the
    ``stream.snapshots_match_batch`` validate invariant.
    """
    problems: List[str] = []
    for twin in default_operators(results):
        operator = operators.get(twin.name)
        if operator is None:
            continue
        twin.feed(plane_rows(results, twin.plane))
        online = operator.digest()
        batch = snapshot_digest(twin.finalize())
        if online != batch:
            problems.append(
                f"operator {twin.name!r} snapshot diverges from the batch "
                f"run (online {online[:12]}, batch {batch[:12]})"
            )
    return problems


class _AlertWatcher:
    """Turns operator-state growth into alerts at chunk granularity.

    After every batch it counts RSDoS detections (``snapshot()``, which
    sorts every bucket), recurring sources (``classify()``, which walks
    every source) and DoS sources (a set size), so a batch costs time
    that grows with the operator state, not O(1).
    """

    def __init__(self, service: CampaignService, plane: str) -> None:
        self.service = service
        self.plane = plane
        self._rsdos_seen = 0
        self._recurring_seen = 0
        self._dos_sources_seen = 0

    def after_batch(self, batch: Sequence[Any]) -> None:
        bus = self.service.bus
        sim_time = self.service.sim_time
        day = self.service.sim_day
        for operator in bus.operators(self.plane):
            if operator.name == "rsdos":
                detected = len(operator.snapshot())
                if detected > self._rsdos_seen:
                    bus.alert(
                        self.plane, "rsdos-detected",
                        f"{detected - self._rsdos_seen} new RSDoS "
                        f"victim(s) inferred from backscatter "
                        f"({detected} total)",
                        sim_time=sim_time, day=day,
                    )
                    self._rsdos_seen = detected
            elif operator.name == "recurrence":
                recurring = len(operator.classify()[0])
                if recurring > self._recurring_seen:
                    bus.alert(
                        self.plane, "recurring-source",
                        f"{recurring - self._recurring_seen} source(s) "
                        f"newly classified as recurring scanners "
                        f"({recurring} total)",
                        sim_time=sim_time, day=day,
                    )
                    self._recurring_seen = recurring
            elif operator.name == "attack_origins":
                dos_sources = len(operator._dos_sources)
                if dos_sources >= self._dos_sources_seen + 25:
                    bus.alert(
                        self.plane, "dos-sources",
                        f"DoS source population grew to {dos_sources}",
                        sim_time=sim_time, day=day,
                    )
                    self._dos_sources_seen = dos_sources

    def close(self) -> None:
        pass
