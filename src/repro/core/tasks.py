"""Supervised keyed-task execution for the sharded measurement planes.

The attack month shards into per-(honeypot, day) tasks, the telescope
month into per-(protocol, day) tasks, and the scan campaign into
per-(protocol, shard) tasks; every task draws from its own
:meth:`~repro.net.prng.RandomStream.derive` child stream, so its output is
a pure function of the task key and the tasks can run inline or on a
process pool in any order.  Each plane describes a batch once, as a
:class:`TaskPlan` — a module-level ``run(state, payload)`` callable, one
picklable payload per task, and the ``setup(context)`` that builds the
state the tasks run against — and :func:`run_tasks` executes that one
description on either rung: inline against ``setup(context)`` built once
per batch, or on a process pool whose workers each build the same state
in their initializer.  Results come back in submission order regardless
of worker count, which is the first half of the byte-identical merge
guarantee (the second half is the canonical sort each plane applies to
the merged output).

Beyond scheduling, ``run_tasks`` is a *supervisor*:

* every task carries a :class:`TaskRef` ``(plane, unit, day/shard)``;
  a raised exception is wrapped in :class:`~repro.net.errors.TaskFailure`
  naming the task, and outstanding futures are cancelled instead of
  running to completion behind the error;
* transient failures (:class:`~repro.net.errors.TransientFaultError`, the
  stand-in for packet loss and rate-limited peers) are retried up to
  ``retries`` times.  Tasks are pure functions of derived PRNG keys, so a
  retry is byte-identical to an undisturbed first attempt — the retried
  campaign's output cannot differ;
* a :class:`TaskJournal` (one atomic, envelope-sealed pickle per completed
  task, under the cache directory) makes campaigns crash-safe: a resumed
  run loads the journaled results of completed tasks and re-executes only
  the rest, producing byte-identical output to an uninterrupted run.
  Every entry is a checksummed :mod:`repro.core.integrity` envelope, so a
  damaged or stale entry is *detected* on read, quarantined (never
  deleted, never re-read), and transparently recomputed — self-healing
  resume;
* a :class:`TaskDeadline` supervises task wall time: overrunning the soft
  deadline records a :class:`TaskStall` warning row (surfaced in
  ``StudyMetrics``), overrunning the hard deadline raises
  :class:`~repro.net.errors.TaskDeadlineError` — a transient fault, so it
  flows through the same ``retries`` path and a retried task is still
  byte-identical (tasks are pure functions of their derived PRNG keys);
* the process executor runs under a **pool supervisor**: abrupt worker
  death (``BrokenProcessPool`` — a SIGKILL, an OOM kill, or the injected
  ``worker.crash`` site) and pool-wide stalls (no chunk completing within
  ``hang_timeout`` — the ``worker.hang`` site) tear the pool down,
  rebuild it, and requeue only the tasks that never completed; because
  every task is a pure function of its derived PRNG key, the re-executed
  tasks are byte-identical to what the dead workers would have produced.
  A bounded restart budget (:data:`DEFAULT_RESTART_BUDGET`) circuit-breaks
  the supervisor down the executor ladder — process pool → inline
  serial — and every restart/downgrade is recorded as a
  :class:`SupervisorEvent` on the batch's :class:`ExecutorStats`
  (``StudyMetrics`` keeps plane-stamped copies of both).

:class:`TaskTiming` is the per-task metrics row surfaced in
``StudyMetrics`` (and ``--metrics-json``) so a run can show where the
wall time went — the attack-plane sibling of
:class:`~repro.scanner.shard.ShardTiming`.
"""

from __future__ import annotations

import functools
import gc
import os
import pickle
import re
import tempfile
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
)
from concurrent.futures import wait as futures_wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core import faults
from repro.core.integrity import (
    QuarantineRecord,
    quarantine_file,
    unwrap_envelope,
    wrap_envelope,
)
from repro.net.errors import (
    ConfigError,
    EnvelopeError,
    FatalFaultError,
    FaultError,
    TaskDeadlineError,
    TaskFailure,
    TransientFaultError,
)

__all__ = [
    "TaskRef",
    "TaskJournal",
    "TaskTiming",
    "TaskStall",
    "TaskDeadline",
    "ChunkTiming",
    "ExecutorStats",
    "SupervisorEvent",
    "TaskPlan",
    "EXECUTORS",
    "DEFAULT_RESTART_BUDGET",
    "resolve_executor",
    "pool_supervision",
    "paused_gc",
    "read_sealed",
    "write_sealed",
    "run_tasks",
]

_T = TypeVar("_T")

#: Journal entry layout version; bumped entries are treated as misses.
#: Version 2: raw pickle payload sealed in a checksummed
#: :mod:`repro.core.integrity` envelope (schema/kind/key/fingerprint).
#: Version 3: a telescope task's result is a ``FlowTupleWriter`` table; a
#: version-2 entry holds the deleted ``FlowBlock`` or a record list.
JOURNAL_SCHEMA_VERSION = 3

_UNSAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]+")

#: What ``pickle.loads`` raises on a payload that passed its checksum but
#: still cannot be rebuilt (a class renamed or removed since the write).
_UNPICKLE_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, IndexError, ValueError, TypeError)


def read_sealed(
    path: str,
    *,
    stage: str,
    schema: int,
    kind: str,
    key: str,
    fingerprint: str,
    quarantine: Callable[[str], None],
) -> Tuple[bool, object]:
    """Load one envelope-sealed pickle: ``(True, obj)`` or ``(False, None)``.

    The shared read half of the task journal and the phase cache's disk
    layer.  An absent file, a ``cache.io`` fault at ``stage`` or an entry
    of an older layout (``stale-schema``: not damage, and the re-run
    stores over it) is a plain miss; a damaged or foreign envelope, or a
    payload that will not unpickle, is a miss too, after
    ``quarantine(reason)`` moves the file aside with the
    :class:`~repro.net.errors.EnvelopeError` reason (or
    ``"unpicklable"``).
    """
    try:
        faults.maybe_fail("cache.io", stage, key)
        with open(path, "rb") as handle:
            blob = handle.read()
    except (OSError, FaultError):
        return False, None  # absent entry or degraded I/O: plain miss
    blob = faults.maybe_corrupt(blob, stage, key)
    try:
        payload = unwrap_envelope(
            blob, schema=schema, kind=kind, key=key, fingerprint=fingerprint,
        )
    except EnvelopeError as error:
        if error.reason != "stale-schema":
            quarantine(error.reason)
        return False, None
    try:
        return True, pickle.loads(payload)
    except _UNPICKLE_ERRORS:
        quarantine("unpicklable")
        return False, None


def write_sealed(
    path: str,
    obj: object,
    *,
    stage: str,
    schema: int,
    kind: str,
    key: str,
    fingerprint: str,
) -> bool:
    """Pickle ``obj`` into a sealed envelope at ``path``, atomically.

    The shared write half of the task journal and the phase cache's disk
    layer: ``mkstemp`` + ``os.replace``, so a reader never sees a torn
    file.  Best-effort — an I/O error, a ``cache.io`` fault at ``stage``
    or an unpicklable ``obj`` returns ``False`` instead of raising.
    """
    directory = os.path.dirname(path)
    try:
        faults.maybe_fail("cache.io", stage, key)
        blob = wrap_envelope(
            pickle.dumps(obj, pickle.HIGHEST_PROTOCOL),
            schema=schema, kind=kind, key=key, fingerprint=fingerprint,
        )
        blob = faults.maybe_corrupt(blob, stage, key)
        os.makedirs(directory, exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=directory, suffix=".pkl.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise
    except (OSError, FaultError, pickle.PicklingError, AttributeError,
            TypeError, RecursionError):
        return False
    return True


@dataclass(frozen=True)
class TaskRef:
    """Identity of one supervised task: which plane, which unit, which slot.

    ``day`` is the day index for the attack/telescope planes and the shard
    index for the scan plane — the second half of the task's derived PRNG
    key either way.
    """

    plane: str   # "attacks", "telescope" or "scan"
    unit: str    # honeypot name, protocol, "rsdos" …
    day: int     # day index, or shard index for the scan plane

    def key(self) -> str:
        """Canonical dotted identity, used in errors and journal files."""
        return f"{self.plane}.{self.unit}.{self.day}"

    def filename(self) -> str:
        """Filesystem-safe journal entry name."""
        return _UNSAFE_CHARS.sub("_", self.key()) + ".pkl"


class TaskJournal:
    """Crash-safe per-task completion journal (one pickle per task).

    Writes are atomic (``mkstemp`` + ``os.replace``) and best-effort —
    journal I/O faults degrade to a skipped write or a miss, never an
    error, exactly like the phase cache's disk layer; every skipped write
    is counted in :attr:`write_errors` and surfaced via ``StudyMetrics``.
    Entries are sealed in a checksummed :mod:`repro.core.integrity`
    envelope carrying the schema version, the task key and the writing
    config's ``fingerprint``, so *any* damaged or foreign file — bit
    flip, truncation, foreign config, colliding name — is detected on
    read, moved to ``quarantine/`` with a reasoned
    :class:`~repro.core.integrity.QuarantineRecord` (collected in
    :attr:`quarantined`), and treated as a miss: the task transparently
    recomputes and re-stores.  An entry of an older schema is a plain
    miss, left for the re-store to replace.

    ``resume=False`` (the default) only *writes*: the journal fills so a
    crash can be resumed later, but existing entries are ignored, keeping
    ordinary re-runs oblivious to stale state.  ``resume=True`` also
    *reads*: completed tasks load their journaled result instead of
    executing, which is what makes an interrupted campaign re-enterable
    with byte-identical output.
    """

    def __init__(
        self, directory: os.PathLike, *, resume: bool = False,
        fingerprint: str = "",
    ) -> None:
        self.directory = os.path.expanduser(os.fspath(directory))
        self.resume = resume
        self.fingerprint = fingerprint
        #: Entries served on load / written on store (for tests and logs).
        self.hits = 0
        self.stores = 0
        #: Best-effort writes that were skipped (satellite of the silent
        #: ``pass`` this counter replaced).
        self.write_errors = 0
        #: Entries moved aside by :meth:`load`, in detection order.
        self.quarantined: List[QuarantineRecord] = []
        self._lock = threading.Lock()

    def _path(self, ref: TaskRef) -> str:
        return os.path.join(self.directory, ref.filename())

    def _quarantine(self, path: str, ref: TaskRef, reason: str) -> None:
        record = quarantine_file(
            path, key=ref.key(), reason=reason, stage="journal.load",
        )
        if record is not None:
            with self._lock:
                self.quarantined.append(record)

    def load(self, ref: TaskRef) -> Tuple[bool, object]:
        """``(True, result)`` when a valid entry exists, else ``(False, None)``."""
        if not self.resume:
            return False, None
        path = self._path(ref)
        found, result = read_sealed(
            path, stage="journal.load", schema=JOURNAL_SCHEMA_VERSION,
            kind="journal", key=ref.key(), fingerprint=self.fingerprint,
            quarantine=functools.partial(self._quarantine, path, ref),
        )
        if found:
            with self._lock:
                self.hits += 1
        return found, result

    def store(self, ref: TaskRef, result: object) -> None:
        """Persist one completed task's result atomically (best-effort)."""
        stored = write_sealed(
            self._path(ref), result, stage="journal.store",
            schema=JOURNAL_SCHEMA_VERSION, kind="journal", key=ref.key(),
            fingerprint=self.fingerprint,
        )
        with self._lock:
            if stored:
                self.stores += 1
            else:
                self.write_errors += 1

    def __len__(self) -> int:
        try:
            return sum(
                1 for name in os.listdir(self.directory)
                if name.endswith(".pkl")
            )
        except OSError:
            return 0


@dataclass
class TaskTiming:
    """Wall-time accounting for one (unit, day) generation task."""

    plane: str    # "attacks", "telescope" or "scan"
    unit: str     # honeypot name, protocol, or "rsdos"
    day: int
    seconds: float
    events: int   # attack events or flowtuple records produced

    @property
    def events_per_second(self) -> float:
        """Throughput of this task (0 when too fast to measure)."""
        return self.events / self.seconds if self.seconds > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-ready form for the metrics payload."""
        return {
            "plane": self.plane,
            "unit": self.unit,
            "day": self.day,
            "seconds": round(self.seconds, 6),
            "events": self.events,
            "events_per_second": round(self.events_per_second, 1),
        }


@dataclass
class TaskStall:
    """One soft-deadline overrun: a warning row, not a failure."""

    plane: str
    unit: str
    day: int
    seconds: float   # observed task wall time
    limit: float     # the soft deadline it overran
    attempt: int

    def to_dict(self) -> dict:
        """JSON-ready form for the metrics payload."""
        return {
            "plane": self.plane,
            "unit": self.unit,
            "day": self.day,
            "seconds": round(self.seconds, 6),
            "limit": self.limit,
            "attempt": self.attempt,
        }


class TaskDeadline:
    """Per-task wall-time supervision: soft stall warnings, hard failures.

    The state machine per attempt: finish under the soft deadline →
    nothing; overrun the soft deadline → a :class:`TaskStall` row is
    recorded (surfaced in ``StudyMetrics`` / ``--metrics-json``) and the
    result is kept; overrun the hard deadline → the attempt's result is
    discarded and :class:`~repro.net.errors.TaskDeadlineError` (transient)
    is raised, flowing through the ordinary ``retries`` path — a stalled
    task usually completes normally when re-run, and supervised tasks are
    pure functions of their derived PRNG keys, so the retry is
    byte-identical to an undisturbed first attempt.

    Armed by the CLI's ``--task-deadline SOFT[:HARD]`` (seconds); the
    ``deadline`` fault site injects configurable delays to test it.
    """

    def __init__(
        self, soft: Optional[float] = None, hard: Optional[float] = None
    ) -> None:
        for name, value in (("soft", soft), ("hard", hard)):
            if value is not None and value <= 0.0:
                raise ConfigError(
                    f"{name} task deadline must be > 0 seconds, got {value}"
                )
        if soft is not None and hard is not None and hard < soft:
            raise ConfigError(
                f"hard task deadline ({hard}s) must be >= the soft "
                f"deadline ({soft}s)"
            )
        self.soft = soft
        self.hard = hard
        #: Soft-deadline overruns observed, in detection order.
        self.stalls: List[TaskStall] = []
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, spec: str) -> "TaskDeadline":
        """Parse ``SOFT`` or ``SOFT:HARD`` (seconds); raises ConfigError."""
        parts = spec.split(":")
        if len(parts) not in (1, 2) or not any(p.strip() for p in parts):
            raise ConfigError(
                f"bad task deadline {spec!r}; expected SOFT[:HARD] seconds"
            )
        try:
            values = [float(part) for part in parts]
        except ValueError:
            raise ConfigError(
                f"bad task deadline {spec!r}; expected SOFT[:HARD] seconds"
            ) from None
        return cls(values[0], values[1] if len(values) == 2 else None)

    def observe(self, ref: TaskRef, seconds: float, attempt: int) -> None:
        """Judge one finished attempt's wall time against the deadlines."""
        if self.hard is not None and seconds > self.hard:
            raise TaskDeadlineError(
                f"task {ref.key()} overran its hard deadline: "
                f"{seconds:.3f}s > {self.hard:g}s (attempt {attempt})",
                key=(ref.plane, ref.unit, ref.day),
                seconds=seconds,
                limit=self.hard,
            )
        if self.soft is not None and seconds > self.soft:
            with self._lock:
                self.stalls.append(TaskStall(
                    plane=ref.plane,
                    unit=ref.unit,
                    day=ref.day,
                    seconds=seconds,
                    limit=self.soft,
                    attempt=attempt,
                ))

    def absorb(self, stalls: Sequence[TaskStall]) -> None:
        """Fold stall rows observed elsewhere (a worker process) in."""
        if not stalls:
            return
        with self._lock:
            self.stalls.extend(stalls)


@contextmanager
def paused_gc() -> Iterator[None]:
    """Suspend cyclic garbage collection for the duration of a batch.

    Generation tasks allocate hundreds of thousands of immutable records
    that are all retained for the merge and form no reference cycles, so
    every generational collection triggered mid-batch rescans an ever
    larger live heap for nothing.  Pausing the collector while a batch
    drains roughly halves telescope emission time at benchmark scales;
    normal collection resumes (and catches up on its own schedule) on
    exit, even on error.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _run_supervised(
    thunk: Callable[[], _T],
    ref: TaskRef,
    retries: int,
    journal: Optional[TaskJournal],
    deadline: Optional[TaskDeadline] = None,
) -> _T:
    """One task under supervision: journal replay, retries, typed failure.

    The ``task`` injection site is checked once per attempt, keyed by the
    task's ref; the attempt number scopes every keyed fault verdict drawn
    *inside* the task too (see :func:`repro.core.faults.task_attempt`), so
    a retry re-runs the task under a fresh, independent failure schedule
    while the task's own PRNG draws stay byte-identical.  A ``deadline``
    judges each attempt's wall time after it completes; a hard overrun
    raises :class:`~repro.net.errors.TaskDeadlineError`, which is
    transient and lands in the same retry arm as injected faults.
    """
    if journal is not None:
        found, result = journal.load(ref)
        if found:
            return result  # type: ignore[return-value]
    attempt = 0
    while True:
        started = time.perf_counter()
        try:
            with faults.task_attempt(attempt):
                faults.maybe_fail("task", ref.plane, ref.unit, ref.day)
                faults.maybe_delay("deadline", ref.plane, ref.unit, ref.day)
                result = thunk()
                if deadline is not None:
                    deadline.observe(
                        ref, time.perf_counter() - started, attempt
                    )
            break
        except TaskFailure:
            raise  # already named (nested run_tasks); don't double-wrap
        except FatalFaultError as error:
            raise TaskFailure(ref, error, attempts=attempt + 1) from error
        except TransientFaultError as error:
            if attempt < retries:
                attempt += 1
                continue
            raise TaskFailure(ref, error, attempts=attempt + 1) from error
        except Exception as error:
            raise TaskFailure(ref, error, attempts=attempt + 1) from error
    if journal is not None:
        journal.store(ref, result)
    return result


@dataclass
class ChunkTiming:
    """Wall time of one process-pool chunk (a striped slice of a batch)."""

    chunk: int
    tasks: int
    seconds: float
    #: Pid of the pool worker that ran the chunk.
    worker: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "chunk": self.chunk,
            "tasks": self.tasks,
            "seconds": round(self.seconds, 6),
            "worker": self.worker,
        }


@dataclass
class SupervisorEvent:
    """One pool-supervisor intervention: a pool rebuild or a downgrade.

    ``action`` is ``"pool-restart"`` (the pool was rebuilt and the
    unfinished tasks requeued) or ``"downgrade"`` (the supervisor stepped
    down the executor ladder); ``reason`` is the stable trigger token —
    ``"worker-crash"`` (``BrokenProcessPool``), ``"hang-timeout"`` (no
    chunk completed within the watchdog window) or ``"restart-budget"``
    (the rebuild budget ran out and the batch fell back to serial).
    ``generation`` numbers the pool incarnation the event ended and
    ``requeued`` counts the tasks handed to the next incarnation (or down
    the ladder).
    """

    action: str
    reason: str
    generation: int
    requeued: int
    #: The plane whose batch it happened in; stamped by
    #: :meth:`~repro.core.metrics.StudyMetrics.record_executor`.
    plane: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "plane": self.plane,
            "action": self.action,
            "reason": self.reason,
            "generation": self.generation,
            "requeued": self.requeued,
        }


@dataclass
class ExecutorStats:
    """What actually ran a plane's task batches, and how fast.

    One instance accumulates across every :func:`run_tasks` call a plane
    makes; ``kind`` keeps the last resolved executor (``auto`` is
    resolved before anything is recorded), which is uniform within a
    plane.  ``StudyMetrics`` keeps a plane-stamped copy per plane as its
    executor row.
    """

    kind: str = "serial"
    workers: int = 1
    tasks: int = 0
    seconds: float = 0.0
    chunks: List[ChunkTiming] = field(default_factory=list)
    #: Pool-supervisor interventions, in occurrence order.
    supervisor: List[SupervisorEvent] = field(default_factory=list)
    #: The plane that ran the batches; stamped by
    #: :meth:`~repro.core.metrics.StudyMetrics.record_executor`.
    plane: str = ""

    @property
    def rate(self) -> Optional[float]:
        """Tasks completed per second of batch wall time."""
        if self.seconds <= 0:
            return None
        return self.tasks / self.seconds

    @property
    def restarts(self) -> int:
        """Pool rebuilds the supervisor performed."""
        return sum(
            1 for event in self.supervisor if event.action == "pool-restart"
        )

    @property
    def downgrades(self) -> int:
        """Executor-ladder downgrades the supervisor performed."""
        return sum(
            1 for event in self.supervisor if event.action == "downgrade"
        )

    def record(self, kind: str, workers: int, tasks: int,
               seconds: float) -> None:
        self.kind = kind
        self.workers = max(self.workers, workers)
        self.tasks += tasks
        self.seconds += seconds

    def to_dict(self) -> Dict[str, object]:
        """The ``task_executors`` row of ``--metrics-json``."""
        return {
            "plane": self.plane,
            "kind": self.kind,
            "workers": self.workers,
            "tasks": self.tasks,
            "seconds": round(self.seconds, 6),
            "tasks_per_second": (
                round(self.rate, 3) if self.rate is not None else None
            ),
            "chunks": [chunk.to_dict() for chunk in self.chunks],
        }


@dataclass(frozen=True)
class TaskPlan:
    """One task batch, described once for both executor rungs.

    ``run(state, payload)`` executes one task against the state
    ``setup(context)`` returns (``context`` itself when there is no
    ``setup``).  The serial rung builds that state once per batch in the
    calling process; the process rung pickles ``context`` once per worker
    and builds the state in the worker's initializer.  Either way every
    task runs the same ``run`` on the same state, so the rungs cannot
    drift apart.  For the pool, ``run`` and ``setup`` must be module-level
    callables (pickled by reference) and ``context`` and ``payloads``
    picklable; ``payloads`` line up with the batch's refs index for index.
    """

    run: Callable[[Any, Any], Any]
    payloads: Sequence[Any]
    context: Any = None
    setup: Optional[Callable[[Any], Any]] = None


#: Recognised ``--executor`` spellings.
EXECUTORS = ("serial", "process", "auto")

#: Pool rebuilds the supervisor performs before stepping down the
#: executor ladder (process → serial).
DEFAULT_RESTART_BUDGET = 3

_default_restart_budget = DEFAULT_RESTART_BUDGET
#: No-progress watchdog window in seconds; ``None`` disarms the watchdog
#: (a hung worker then simply holds its chunk until it wakes).
_default_hang_timeout: Optional[float] = None


@contextmanager
def pool_supervision(
    *,
    hang_timeout: Optional[float] = None,
    restart_budget: Optional[int] = None,
) -> Iterator[None]:
    """Scope process-pool supervision defaults for nested ``run_tasks``.

    The one way to tune the pool supervisor: every :func:`run_tasks`
    batch inside the ``with`` body inherits ``hang_timeout`` (the
    no-progress window, seconds) and ``restart_budget`` (pool rebuilds
    before downgrading).  Omitted values keep the surrounding defaults;
    outside any scope the watchdog is disarmed and the budget is
    :data:`DEFAULT_RESTART_BUDGET`.
    """
    global _default_hang_timeout, _default_restart_budget
    previous = (_default_hang_timeout, _default_restart_budget)
    if hang_timeout is not None:
        _default_hang_timeout = hang_timeout
    if restart_budget is not None:
        _default_restart_budget = max(0, restart_budget)
    try:
        yield
    finally:
        _default_hang_timeout, _default_restart_budget = previous


def resolve_executor(executor: Optional[str], *, workers: int = 1) -> str:
    """Resolve an executor request to a concrete kind.

    ``auto`` picks the process pool when more than one worker is
    requested and the box actually has more than one core to use —
    otherwise serial.  Output bytes are identical either way; only the
    wall clock differs.
    """
    if executor is None or executor == "auto":
        if workers > 1 and (os.cpu_count() or 1) > 1:
            return "process"
        return "serial"
    if executor not in EXECUTORS:
        raise ConfigError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    return executor


#: Per-worker state built by a :class:`TaskPlan`'s setup callable.
_worker_state: Any = None


def _process_initializer(setup, context, fault_plan) -> None:
    """Worker bootstrap: install the parent's fault plan, build state.

    Fault verdicts are pure functions of (plan seed, site, key, attempt)
    — see :mod:`repro.core.faults` — so installing the same plan here
    reproduces the parent's failure schedule exactly, whatever process
    the task lands on.
    """
    global _worker_state
    if fault_plan is not None:
        faults.install(fault_plan)
    _worker_state = setup(context) if setup is not None else context


def _process_chunk(run, items, retries, deadline_spec, generation=0):
    """Run one striped chunk inside a worker process.

    ``items`` is ``[(index, ref, payload), ...]``.  Supervision (task/
    deadline fault sites, retries) happens worker-side through the same
    :func:`_run_supervised` the serial path uses; journalling stays in
    the parent (the journal holds a lock and a directory handle).  Soft
    stalls are collected on a local deadline and returned for the parent
    to absorb.

    The ``worker.crash`` / ``worker.hang`` fault sites are checked here —
    and *only* here, so the serial executor is immune and the
    supervisor's downgrade ladder always terminates.  Both verdicts
    fold ``generation`` (the pool incarnation) into the key: a task
    requeued after a pool rebuild draws a fresh, independent verdict,
    while its own PRNG draws stay byte-identical.  The checks run before
    the task does, so a killed worker has produced no partial effects.
    """
    deadline = (
        TaskDeadline(deadline_spec[0], deadline_spec[1])
        if deadline_spec is not None else None
    )
    started = time.perf_counter()
    results = []
    with paused_gc():
        for index, ref, payload in items:
            faults.maybe_crash(ref.plane, ref.unit, ref.day, generation)
            faults.maybe_delay(
                "worker.hang", ref.plane, ref.unit, ref.day, generation
            )
            thunk = functools.partial(run, _worker_state, payload)
            results.append(
                (index, _run_supervised(thunk, ref, retries, None, deadline))
            )
    seconds = time.perf_counter() - started
    stalls = list(deadline.stalls) if deadline is not None else []
    return results, stalls, seconds, os.getpid()


def _striped_chunks(indexes: Sequence[int], n_chunks: int) -> List[List[int]]:
    """Interleaved chunk assignment: chunk *i* takes every n_chunks-th task.

    Contiguous chunks serialize behind cost skew — a honeypot's whole
    expensive telnet month can land in one chunk.  Striping deals every
    chunk a cross-section of the batch instead; results are re-merged by
    task index, so the assignment is invisible in the output bytes.
    """
    return [list(indexes[i::n_chunks]) for i in range(n_chunks)]


def run_tasks(
    plan: TaskPlan,
    workers: int,
    *,
    refs: Optional[Sequence[TaskRef]] = None,
    retries: int = 0,
    journal: Optional[TaskJournal] = None,
    deadline: Optional[TaskDeadline] = None,
    executor: Optional[str] = None,
    stats: Optional[ExecutorStats] = None,
) -> List[_T]:
    """Run a :class:`TaskPlan`'s independent tasks supervised, in order.

    The batch runs inline (the serial rung) unless ``executor`` resolves
    to ``"process"`` and ``workers > 1``: then it fans out on a
    supervised process pool that sidesteps the GIL.  The serial rung
    builds ``plan.setup(plan.context)`` once and runs every task as
    ``plan.run(state, payload)``, exactly as each pool worker does.
    Either way the result list order is the submission order, never the
    completion order, so callers can merge without knowing how the work
    was scheduled.  Cyclic GC is paused while the batch drains (see
    :func:`paused_gc`).

    ``refs`` names each task (defaults to anonymous per-index refs);
    ``retries`` bounds transient-failure re-execution; ``journal`` makes
    completed tasks crash-safe and, with ``journal.resume``, replayable;
    ``deadline`` arms per-task wall-time supervision (soft stalls recorded
    on the deadline object, hard overruns retried as transient faults);
    ``stats`` accumulates executor kind, per-chunk timings and supervisor
    events for the metrics surface.  A failure surfaces as
    :class:`~repro.net.errors.TaskFailure` carrying the task's ref.

    The process-pool supervisor takes its restart budget and watchdog
    window from the enclosing :func:`pool_supervision` scope: a broken
    pool or a watchdog timeout rebuilds the pool and requeues the
    unfinished tasks — byte-identical, because the tasks are pure
    functions of their derived PRNG keys — and when the budget runs out
    the leftover tasks finish inline, where worker fault sites cannot
    fire.
    """
    payloads = plan.payloads
    if refs is None:
        refs = [TaskRef("tasks", "task", index)
                for index in range(len(payloads))]
    elif len(refs) != len(payloads):
        raise ValueError(
            f"got {len(payloads)} payloads but {len(refs)} refs"
        )
    retries = max(0, retries)
    kind = resolve_executor(executor, workers=workers)

    results: List[Optional[_T]] = [None] * len(payloads)
    pending: Sequence[int] = range(len(payloads))
    if kind == "process" and workers > 1 and len(payloads) > 1:
        pending = _run_process_pool(
            plan, refs, workers, retries, journal, deadline,
            stats, results,
            restart_budget=_default_restart_budget,
            hang_timeout=_default_hang_timeout,
        )
        if not pending:
            return results  # type: ignore[return-value]
        # Restart budget exhausted: the unfinished tasks finish inline.
        # Worker fault sites never fire outside a process-pool worker, so
        # this rung cannot crash the same way — the ladder terminates.

    started = time.perf_counter()
    state = plan.context if plan.setup is None else plan.setup(plan.context)
    with paused_gc():
        for index in pending:
            results[index] = _run_supervised(
                functools.partial(plan.run, state, payloads[index]),
                refs[index], retries, journal, deadline,
            )
    if stats is not None:
        stats.record("serial", 1, len(pending),
                     time.perf_counter() - started)
    return results  # type: ignore[return-value]


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Best-effort kill of a pool's worker processes (hang recovery).

    Reaches into the executor's process table — there is no public kill
    API — and terminates each worker; a pool already broken by worker
    death has reaped its processes and this is a no-op.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError, AttributeError):
            pass


def _run_pool_generation(
    plan: TaskPlan,
    refs: Sequence[TaskRef],
    pending: Sequence[int],
    workers: int,
    retries: int,
    deadline_spec: Optional[Tuple[Optional[float], Optional[float]]],
    fault_plan: Any,
    journal: Optional[TaskJournal],
    deadline: Optional[TaskDeadline],
    stats: Optional[ExecutorStats],
    results: List[Any],
    generation: int,
    hang_timeout: Optional[float],
    chunk_counter: int,
) -> Tuple[set, Optional[str], int]:
    """Run one pool incarnation over ``pending``; report what survived.

    Returns ``(completed_indexes, failure, chunk_counter)`` where
    ``failure`` is ``None`` (every chunk drained), ``"worker-crash"``
    (the pool broke under abrupt worker death) or ``"hang-timeout"`` (no
    chunk completed within ``hang_timeout`` seconds — the no-progress
    watchdog).  Completed chunk results are committed to ``results`` and
    the journal as they drain, so a mid-generation failure loses only the
    genuinely unfinished tasks; everything committed stays committed.
    """
    payloads = plan.payloads
    # ``workers * 4`` striped chunks keep the pool load-balanced when task
    # sizes are skewed (telnet days dwarf xmpp days) while per-chunk
    # overhead stays negligible.
    n_chunks = min(len(pending), workers * 4)
    chunks = _striped_chunks(pending, n_chunks)
    items = [
        [(index, refs[index], payloads[index]) for index in chunk]
        for chunk in chunks
    ]
    completed: set = set()
    failure: Optional[str] = None
    error: Optional[BaseException] = None
    clean_exit = False
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_process_initializer,
        initargs=(plan.setup, plan.context, fault_plan),
    )

    def drain(done_futures):
        """Commit every successfully finished chunk in the wave."""
        nonlocal failure, error, chunk_counter
        for future in done_futures:
            try:
                chunk_results, stalls, seconds, pid = future.result()
            except CancelledError:
                # Salvage pass cancelled an unstarted chunk; it rides
                # above ``Exception`` on modern Pythons, so name it.
                continue
            except BrokenExecutor:
                failure = "worker-crash"
                continue
            except Exception as exc:
                # A real task failure (fatal fault, genuine bug) in this
                # chunk.  Hold the first one and keep draining: sibling
                # chunks that finished must still reach the journal, or
                # whether a resume finds any progress would depend on
                # chunk scheduling order.  Re-raised after the salvage
                # pass below.
                if error is None:
                    error = exc
                continue
            for index, result in chunk_results:
                results[index] = result
                completed.add(index)
                if journal is not None:
                    journal.store(refs[index], result)
            if deadline is not None:
                deadline.absorb(stalls)
            if stats is not None:
                stats.chunks.append(ChunkTiming(
                    chunk=chunk_counter, tasks=len(chunk_results),
                    seconds=seconds, worker=pid,
                ))
            chunk_counter += 1

    try:
        try:
            not_done = {
                pool.submit(_process_chunk, plan.run, chunk_items,
                            retries, deadline_spec, generation)
                for chunk_items in items
            }
        except BrokenExecutor:
            # A worker died before submission finished (crash verdict in
            # the initializer window); nothing was committed.
            clean_exit = True
            return completed, "worker-crash", chunk_counter
        while not_done and failure is None and error is None:
            done, not_done = futures_wait(not_done, timeout=hang_timeout)
            if not done:
                # No chunk finished inside the watchdog window: a worker
                # is wedged (the ``worker.hang`` site, a livelock, a
                # blocked syscall).  Tear the incarnation down.
                failure = "hang-timeout"
                break
            drain(done)
        if error is not None:
            # Salvage: unstarted chunks are cancelled, but chunks already
            # running in healthy workers finish on their own — wait
            # (bounded by the hang watchdog) and commit them, so a resume
            # replays every task that actually completed.
            for future in not_done:
                future.cancel()
            while not_done:
                done, not_done = futures_wait(not_done, timeout=hang_timeout)
                if not done:
                    break
                drain(done)
            raise error
        clean_exit = True
        return completed, failure, chunk_counter
    finally:
        if failure is None and clean_exit:
            pool.shutdown(wait=True)
        else:
            # A broken, hung, or exception-interrupted incarnation: kill
            # the workers (a hung worker would otherwise hold shutdown
            # hostage for the length of its sleep) and abandon the queue.
            _terminate_pool(pool)
            pool.shutdown(wait=False, cancel_futures=True)


def _run_process_pool(
    plan: TaskPlan,
    refs: Sequence[TaskRef],
    workers: int,
    retries: int,
    journal: Optional[TaskJournal],
    deadline: Optional[TaskDeadline],
    stats: Optional[ExecutorStats],
    results: List[Any],
    *,
    restart_budget: int,
    hang_timeout: Optional[float],
) -> List[int]:
    """The multi-core arm of :func:`run_tasks`, under pool supervision.

    The parent keeps everything that holds locks or file handles: journal
    replay happens before submission (resumed tasks never reach a worker)
    and journal stores happen as chunk results drain back.  Workers get
    the picklable plan — context once via the pool initializer, then
    striped ``(index, ref, payload)`` chunks — and run the same
    supervision loop the serial path does, with identical keyed fault and
    deadline verdicts because those are pure in (seed, key, attempt).

    The supervision loop around the incarnations: a broken pool (abrupt
    worker death) or a watchdog timeout requeues exactly the tasks that
    never drained back and rebuilds the pool under the next generation
    number — safe, because tasks are pure functions of their derived PRNG
    keys, so re-execution is byte-identical.  Each rebuild spends one
    unit of ``restart_budget``; when the budget is gone the remaining
    task indexes are returned for :func:`run_tasks` to finish on the
    serial rung (an empty return means the batch completed here).
    Ordinary task failures (:class:`~repro.net.errors.TaskFailure`)
    propagate — they are the task's verdict, not the pool's.
    """
    total = len(plan.payloads)
    pending: List[int] = []
    for index in range(total):
        if journal is not None:
            found, result = journal.load(refs[index])
            if found:
                results[index] = result
                continue
        pending.append(index)
    if not pending:
        if stats is not None:
            stats.record("process", workers, total, 0.0)
        return []

    injector = faults.active()
    fault_plan = injector.plan if injector is not None else None
    deadline_spec = (
        (deadline.soft, deadline.hard) if deadline is not None else None
    )
    started = time.perf_counter()
    generation = 0
    restarts = 0
    chunk_counter = 0
    while pending:
        completed, failure, chunk_counter = _run_pool_generation(
            plan, refs, pending, workers, retries, deadline_spec,
            fault_plan, journal, deadline, stats, results, generation,
            hang_timeout, chunk_counter,
        )
        pending = [index for index in pending if index not in completed]
        if failure is None or not pending:
            pending = []
            break
        if restarts >= restart_budget:
            if stats is not None:
                stats.supervisor.append(SupervisorEvent(
                    action="downgrade", reason="restart-budget",
                    generation=generation, requeued=len(pending),
                ))
            break
        restarts += 1
        if stats is not None:
            stats.supervisor.append(SupervisorEvent(
                action="pool-restart", reason=failure,
                generation=generation, requeued=len(pending),
            ))
        generation += 1
    if stats is not None:
        stats.record("process", workers, total - len(pending),
                     time.perf_counter() - started)
    return pending
