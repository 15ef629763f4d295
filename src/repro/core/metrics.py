"""Structured execution metrics for the phase engine.

Every phase the engine runs (or serves from cache) is recorded as one
:class:`PhaseMetric`; a :class:`StudyMetrics` aggregates them into the
shapes the rest of the system consumes:

* ``group_seconds()`` — wall time rolled up to the eight paper phases
  (``world``/``scan``/…), feeding ``StudyResults.phase_seconds`` so the
  pre-engine API keeps working;
* ``to_dict()`` / ``to_json()`` — the ``--metrics-json`` CLI export;
* ``render()`` — a human table for interactive runs.

Rates are derived, not stored: a phase that reports an item count (hosts
scanned, attack events, telescope packets) gets an items/second figure for
free, which is what the benchmarks chart against the paper's own campaign
durations.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.integrity import QuarantineRecord
from repro.core.tasks import (
    ExecutorStats,
    SupervisorEvent,
    TaskDeadline,
    TaskJournal,
    TaskStall,
    TaskTiming,
)
from repro.scanner.shard import ShardTiming

__all__ = [
    "PhaseMetric",
    "JournalMetric",
    "StoreMetric",
    "OperatorMetric",
    "BusMetric",
    "StudyMetrics",
]


@dataclass
class PhaseMetric:
    """One phase execution (or cache hit)."""

    phase: str
    #: Paper-level rollup bucket (``scan`` for zmap/sonar/shodan/merge …).
    group: str
    seconds: float
    cache_hit: bool = False
    #: Artifacts came off the on-disk layer rather than the in-process one.
    disk_hit: bool = False
    #: Domain items the phase produced (hosts, events, packets …).
    items: Optional[int] = None
    #: ``"ok"``, or ``"degraded"`` when an optional phase failed (or lost
    #: a degraded prerequisite) under ``fail_policy="degrade"`` and the
    #: study carried on with its artifacts as ``None``.
    status: str = "ok"

    @property
    def rate(self) -> Optional[float]:
        """Items per second, when the phase reported an item count."""
        if self.items is None or self.seconds <= 0:
            return None
        return self.items / self.seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "group": self.group,
            "seconds": round(self.seconds, 6),
            "cache_hit": self.cache_hit,
            "disk_hit": self.disk_hit,
            "items": self.items,
            "items_per_second": (
                round(self.rate, 3) if self.rate is not None else None
            ),
            "status": self.status,
        }


@dataclass
class JournalMetric:
    """One measurement plane's task-journal accounting for a run."""

    plane: str
    hits: int = 0
    stores: int = 0
    #: Best-effort journal writes that were skipped (I/O failure or an
    #: injected ``cache.io`` fault) — previously dropped on the floor.
    write_errors: int = 0
    #: Damaged/stale entries moved to ``quarantine/`` during this run.
    quarantined: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "plane": self.plane,
            "hits": self.hits,
            "stores": self.stores,
            "write_errors": self.write_errors,
            "quarantined": self.quarantined,
        }


@dataclass
class StoreMetric:
    """One plane store's batch accounting for a run.

    Shows in ``--metrics-json`` how many columnar batch ingests the store
    served (``append_batch`` / block filings) and how many rows it holds.
    """

    plane: str
    batch_appends: int = 0
    rows: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "plane": self.plane,
            "batch_appends": self.batch_appends,
            "rows": self.rows,
        }


@dataclass
class OperatorMetric:
    """One streaming operator's feed accounting for a campaign.

    Recorded by the campaign service when a stream finishes: how many
    rows/batches the operator folded and how long the folds took, which
    is the ``--metrics-json`` view of incremental-pipeline throughput.
    """

    operator: str
    plane: str
    batches: int = 0
    rows: int = 0
    seconds: float = 0.0

    @property
    def rate(self) -> Optional[float]:
        """Rows folded per second of operator time."""
        if self.seconds <= 0:
            return None
        return self.rows / self.seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "operator": self.operator,
            "plane": self.plane,
            "batches": self.batches,
            "rows": self.rows,
            "seconds": round(self.seconds, 6),
            "rows_per_second": (
                round(self.rate, 3) if self.rate is not None else None
            ),
        }


@dataclass
class BusMetric:
    """One streaming campaign's event-bus overflow/error accounting.

    Recorded by the campaign service when a stream finishes: rows
    published, batches/rows shed by the bounded publish queue under a
    lossy policy, items evicted from the bounded event/alert rings, and
    operator exceptions the bus isolated.
    """

    published: int = 0
    dropped_batches: int = 0
    dropped_rows: int = 0
    events_evicted: int = 0
    alerts_evicted: int = 0
    operator_errors: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "published": self.published,
            "dropped_batches": self.dropped_batches,
            "dropped_rows": self.dropped_rows,
            "events_evicted": self.events_evicted,
            "alerts_evicted": self.alerts_evicted,
            "operator_errors": self.operator_errors,
        }


@dataclass
class StudyMetrics:
    """Everything one engine run measured, in execution order."""

    phases: List[PhaseMetric] = field(default_factory=list)
    #: Per-(protocol, shard) scan timings from sharded campaigns.
    shards: List[ShardTiming] = field(default_factory=list)
    #: Per-(honeypot, day) / per-(protocol, day) generation timings from
    #: the sharded attack and telescope planes.
    tasks: List[TaskTiming] = field(default_factory=list)
    #: Per-plane journal accounting (hits, stores, skipped writes,
    #: quarantined entries), one row per supervised plane.
    journals: List[JournalMetric] = field(default_factory=list)
    #: Quarantine records from journals and the phase cache, in detection
    #: order — the full reasoned trail behind the counts above.
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    #: Soft-deadline overruns observed by task supervision.
    stalls: List[TaskStall] = field(default_factory=list)
    #: Per-plane store batch accounting, one row per plane store.
    stores: List[StoreMetric] = field(default_factory=list)
    #: Streaming-operator feed accounting, one row per registered
    #: operator of a campaign-service run.
    operators: List[OperatorMetric] = field(default_factory=list)
    #: Per-plane resolved task executors (kind, width, chunk walls), one
    #: plane-stamped copy per plane that ran a sharded task batch this run.
    task_executors: List[ExecutorStats] = field(default_factory=list)
    #: Pool-supervisor interventions (restarts/downgrades), one
    #: plane-stamped row per event across every supervised plane batch.
    supervisor: List[SupervisorEvent] = field(default_factory=list)
    #: Event-bus overflow/error accounting of a streamed campaign
    #: (``None`` for plain batch runs).
    bus: Optional[BusMetric] = None

    # -- recording --------------------------------------------------------

    def record(self, metric: PhaseMetric) -> None:
        self.phases.append(metric)

    def record_shards(self, timings: Iterable[ShardTiming]) -> None:
        """Attach the scanner's per-shard wall-time rows."""
        self.shards.extend(timings)

    def record_tasks(self, timings: Iterable[TaskTiming]) -> None:
        """Attach attack/telescope per-(unit, day) wall-time rows."""
        self.tasks.extend(timings)

    def record_supervision(
        self,
        plane: str,
        *,
        journal: Optional[TaskJournal] = None,
        deadline: Optional[TaskDeadline] = None,
    ) -> None:
        """Fold one plane's journal and deadline accounting into the run."""
        if journal is not None:
            self.journals.append(JournalMetric(
                plane=plane,
                hits=journal.hits,
                stores=journal.stores,
                write_errors=journal.write_errors,
                quarantined=len(journal.quarantined),
            ))
            self.quarantined.extend(journal.quarantined)
        if deadline is not None:
            self.stalls.extend(deadline.stalls)

    def record_quarantines(
        self, records: Iterable[QuarantineRecord]
    ) -> None:
        """Attach phase-cache quarantine records (no per-plane journal)."""
        self.quarantined.extend(records)

    def record_store(self, plane: str, store: object) -> None:
        """Fold one plane store's batch accounting into the run.

        Works on any :class:`~repro.core.columns.ColumnTable` (the three
        plane stores count their ``batch_appends``).
        """
        self.stores.append(StoreMetric(
            plane=plane,
            batch_appends=getattr(store, "batch_appends", 0),
            rows=len(store),  # type: ignore[arg-type]
        ))

    def record_executor(self, plane: str, stats: ExecutorStats) -> None:
        """Fold a plane-stamped copy of one plane's :class:`ExecutorStats`.

        Skips planes that never ran a batch (``tasks == 0``) — a cached
        phase leaves its component's stats empty, and an all-"serial"
        row for it would misreport what this run executed.  Supervisor
        events ride along either way: a batch the supervisor had to
        restart or downgrade is worth a row even if every task was
        ultimately replayed from the journal.
        """
        events = [
            dataclasses.replace(event, plane=plane)
            for event in stats.supervisor
        ]
        self.supervisor.extend(events)
        if stats.tasks == 0:
            return
        self.task_executors.append(dataclasses.replace(
            stats, plane=plane, chunks=list(stats.chunks), supervisor=events,
        ))

    def record_bus(self, bus: object) -> None:
        """Fold a streamed campaign's event-bus accounting into the run.

        Works on anything shaped like a
        :class:`~repro.stream.bus.EventBus` — published counts, queue
        drop counters, ring eviction counts and isolated operator-error
        counts.
        """
        events = getattr(bus, "events", None)
        alerts = getattr(bus, "alerts", None)
        operator_errors = getattr(bus, "operator_errors", {})
        self.bus = BusMetric(
            published=sum(getattr(bus, "published", {}).values()),
            dropped_batches=getattr(bus, "dropped_batches", 0),
            dropped_rows=getattr(bus, "dropped_rows", 0),
            events_evicted=getattr(events, "dropped", 0),
            alerts_evicted=getattr(alerts, "dropped", 0),
            operator_errors=sum(operator_errors.values()),
        )

    def record_operator(self, operator: object) -> None:
        """Fold one streaming operator's feed accounting into the run.

        Works on anything shaped like an
        :class:`~repro.stream.operators.OperatorBase` — the ``name`` /
        ``plane`` identity plus the ``rows_fed`` / ``batches_fed`` /
        ``seconds`` counters it maintains per feed.
        """
        self.operators.append(OperatorMetric(
            operator=getattr(operator, "name", type(operator).__name__),
            plane=getattr(operator, "plane", "analysis"),
            batches=getattr(operator, "batches_fed", 0),
            rows=getattr(operator, "rows_fed", 0),
            seconds=getattr(operator, "seconds", 0.0),
        ))

    # -- aggregate views --------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return sum(1 for metric in self.phases if metric.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(1 for metric in self.phases if not metric.cache_hit)

    @property
    def wall_seconds(self) -> float:
        """Sum of per-phase times."""
        return sum(metric.seconds for metric in self.phases)

    @property
    def degraded(self) -> List[str]:
        """Phases that failed but were degraded instead of aborting."""
        return [m.phase for m in self.phases if m.status == "degraded"]

    @property
    def journal_write_errors(self) -> int:
        """Total best-effort journal writes skipped across all planes."""
        return sum(journal.write_errors for journal in self.journals)

    def phase_order(self) -> List[str]:
        """Phase names in the order they completed."""
        return [metric.phase for metric in self.phases]

    def group_seconds(self) -> Dict[str, float]:
        """Wall time per paper-level phase group, insertion-ordered."""
        totals: Dict[str, float] = {}
        for metric in self.phases:
            totals[metric.group] = totals.get(metric.group, 0.0) + metric.seconds
        return totals

    # -- export -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "wall_seconds": round(self.wall_seconds, 6),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "degraded": self.degraded,
            "group_seconds": {
                group: round(seconds, 6)
                for group, seconds in self.group_seconds().items()
            },
            "journal_write_errors": self.journal_write_errors,
            "phases": [metric.to_dict() for metric in self.phases],
            "shards": [timing.to_dict() for timing in self.shards],
            "tasks": [timing.to_dict() for timing in self.tasks],
            "journals": [journal.to_dict() for journal in self.journals],
            "quarantined": [
                record.to_dict() for record in self.quarantined
            ],
            "stalls": [stall.to_dict() for stall in self.stalls],
            "stores": [store.to_dict() for store in self.stores],
            "operators": [
                operator.to_dict() for operator in self.operators
            ],
            "task_executors": [
                executor.to_dict() for executor in self.task_executors
            ],
            "supervisor": [event.to_dict() for event in self.supervisor],
            "bus": self.bus.to_dict() if self.bus is not None else None,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """A fixed-width table for terminal output."""
        header = (f"{'phase':<18} {'group':<11} {'seconds':>9} "
                  f"{'cache':>6} {'items':>12} {'items/s':>12}")
        lines = [header, "-" * len(header)]
        for metric in self.phases:
            cache = ("DEGRADED" if metric.status == "degraded"
                     else "disk" if metric.disk_hit
                     else "hit" if metric.cache_hit else "miss")
            items = f"{metric.items:,}" if metric.items is not None else "-"
            rate = f"{metric.rate:,.0f}" if metric.rate is not None else "-"
            lines.append(
                f"{metric.phase:<18} {metric.group:<11} "
                f"{metric.seconds:>9.3f} {cache:>6} {items:>12} {rate:>12}"
            )
        lines.append(
            f"total {self.wall_seconds:.3f}s over {len(self.phases)} phases "
            f"({self.cache_hits} cached)"
        )
        if self.stores:
            lines.append(
                "stores: "
                + "; ".join(
                    f"{store.plane} ({store.rows:,} rows, "
                    f"{store.batch_appends} batches)"
                    for store in self.stores
                )
            )
        if self.task_executors:
            lines.append(
                "executors: "
                + "; ".join(
                    f"{metric.plane} {metric.kind}×{metric.workers} "
                    f"({metric.tasks} tasks"
                    + (f", {metric.rate:,.0f} tasks/s"
                       if metric.rate is not None else "")
                    + (f", {len(metric.chunks)} chunks)"
                       if metric.chunks else ")")
                    for metric in self.task_executors
                )
            )
        if self.supervisor:
            lines.append(
                "supervisor: "
                + "; ".join(
                    f"{event.plane} {event.action} ({event.reason}, "
                    f"gen {event.generation}, {event.requeued} requeued)"
                    for event in self.supervisor
                )
            )
        if self.bus is not None:
            lines.append(
                f"bus: {self.bus.published:,} rows published, "
                f"{self.bus.dropped_batches} batches/"
                f"{self.bus.dropped_rows} rows shed, "
                f"{self.bus.events_evicted} events / "
                f"{self.bus.alerts_evicted} alerts evicted, "
                f"{self.bus.operator_errors} operator errors isolated"
            )
        if self.operators:
            lines.append(
                "operators: "
                + "; ".join(
                    f"{metric.plane}.{metric.operator} "
                    f"({metric.rows:,} rows, {metric.batches} batches"
                    + (f", {metric.rate:,.0f} rows/s)"
                       if metric.rate is not None else ")")
                    for metric in self.operators
                )
            )
        if self.degraded:
            lines.append(
                "degraded phases (study continued without them): "
                + ", ".join(self.degraded)
            )
        if any(j.hits or j.stores or j.write_errors or j.quarantined
               for j in self.journals):
            lines.append(
                "journal: "
                + "; ".join(
                    f"{j.plane} {j.hits} replayed, {j.stores} stored, "
                    f"{j.write_errors} write errors, "
                    f"{j.quarantined} quarantined"
                    for j in self.journals
                )
            )
        if self.quarantined:
            lines.append(
                "quarantined entries: "
                + ", ".join(
                    f"{record.key} ({record.reason})"
                    for record in self.quarantined
                )
            )
        if self.stalls:
            lines.append(
                "stalled tasks (soft deadline overrun): "
                + ", ".join(
                    f"{stall.plane}.{stall.unit}.{stall.day} "
                    f"{stall.seconds:.3f}s > {stall.limit:g}s"
                    for stall in self.stalls
                )
            )
        if self.shards:
            lines.append("")
            lines.append(f"{'scan shard':<18} {'seconds':>9} {'records':>9} "
                         f"{'probes':>9} {'rec/s':>12}")
            for timing in self.shards:
                label = f"{timing.protocol}#{timing.shard}"
                lines.append(
                    f"{label:<18} {timing.seconds:>9.3f} "
                    f"{timing.records:>9,} {timing.probes:>9,} "
                    f"{timing.records_per_second:>12,.0f}"
                )
        if self.tasks:
            # One row per generation unit (honeypot / telescope protocol /
            # rsdos), summed over its days — the full per-day rows stay in
            # the JSON export.
            rollup: Dict[str, List[float]] = {}
            for timing in self.tasks:
                label = f"{timing.plane}:{timing.unit}"
                seconds, events, days = rollup.setdefault(label, [0.0, 0, 0])
                rollup[label] = [seconds + timing.seconds,
                                 events + timing.events, days + 1]
            lines.append("")
            lines.append(f"{'generation unit':<22} {'seconds':>9} "
                         f"{'events':>10} {'days':>5} {'ev/s':>12}")
            for label, (seconds, events, days) in rollup.items():
                rate = events / seconds if seconds > 0 else 0.0
                lines.append(
                    f"{label:<22} {seconds:>9.3f} {events:>10,} "
                    f"{days:>5} {rate:>12,.0f}"
                )
        return "\n".join(lines)
