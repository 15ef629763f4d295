"""Per-layer tracing from outside the package: wrappers on public entry points.

:class:`Tracer` installs a wrapper on every entry point in
:data:`ENTRY_POINTS` for the duration of one traced unit and removes it
afterwards, so untraced units run the package untouched.  A wrapper is
installed where the caller looks the name up: a ``from x import y``
binding in the calling module, or the class attribute for methods
(every override in a subclass included).

Each wrapped call is a span.  Spans nest on one stack, so a layer's
*self* time is its spans' time minus the spans they enclose.  Coarse
entry points keep every span (``{id, name, start, end, parent, unit}``,
written as JSONL when the run ends); hot ones (protocol handlers, PRNG
batches, column appends…) only add to per-layer totals, which keeps
memory flat.  ``run_tasks`` is metered rather than spanned: its wall
time and the plane's public ``ExecutorStats`` give the pool figures, and
the task bodies' time stays with the plane that submitted them.

Only the calling thread is traced.  Under the process pool, work done
in workers shows only through ``ChunkTiming`` (``tasks.chunk_busy_s``).
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = ["ENTRY_POINTS", "LAYERS", "Tracer", "layer_metrics"]


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped binding: ``module:Qual.name`` and what it counts."""

    target: str
    #: Layer label, or ``label(args) -> str`` for per-instance labels.
    label: Union[str, Callable[[tuple], str]]
    #: Keep individual spans (coarse entry points only).
    record: bool = False
    #: Wrap every subclass override of a method as well.
    subclasses: bool = False
    #: ``count(counters, args, kwargs, result, token)`` after each call.
    count: Optional[Callable[..., None]] = None
    #: ``before(args, kwargs) -> token`` for counts that need a delta.
    before: Optional[Callable[..., Any]] = None
    #: Metered (timed, not on the span stack).
    meter: bool = False


def _add(key: str, value: Callable[[tuple, dict, Any], float]):
    def count(counters, args, kwargs, result, token) -> None:
        counters[key] += value(args, kwargs, result)
    return count


def _scanner_before(args, kwargs):
    return args[0].probes_sent


def _scanner_count(counters, args, kwargs, result, token) -> None:
    counters["scanner.probes"] += args[0].probes_sent - token
    counters["scanner.records"] += len(result)


def _attacks_before(args, kwargs):
    return args[0].executor_stats.tasks


def _attacks_count(counters, args, kwargs, result, token) -> None:
    counters["attacks.events"] += len(result.log)
    counters["attacks.tasks"] += args[0].executor_stats.tasks - token


def _tasks_before(args, kwargs):
    stats = kwargs["stats"]
    return len(stats.chunks), stats.seconds, stats.restarts


def _tasks_count(counters, args, kwargs, result, token, seconds) -> None:
    """Pool figures of one ``run_tasks`` batch from its ``ExecutorStats``.

    Busy time is the chunks' own time when the batch ran in chunks and
    the inline batch time when it ran serially; overhead is the batch's
    wall time beyond that busy time spread over the workers.
    """
    counters["tasks.run_s"] += seconds
    stats = kwargs["stats"]
    chunks, inline, restarts = token
    new_chunks = stats.chunks[chunks:]
    if new_chunks:
        busy = sum(chunk.seconds for chunk in new_chunks)
        workers = max(1, args[1] if len(args) > 1 else kwargs["workers"])
    else:
        busy = stats.seconds - inline
        workers = 1
    counters["tasks.chunk_busy_s"] += busy
    counters["tasks.pool_overhead_s"] += seconds - busy / workers
    counters["tasks.pool_restarts"] += stats.restarts - restarts


#: Every wrapped binding.  ``bench trace`` fails when one of them records
#: no call on any workload: a caller that bound the name some other way
#: would be timed by nobody.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("repro.internet.population:PopulationBuilder.build",
               "internet.build", record=True,
               count=_add("internet.hosts",
                          lambda a, k, result: len(result.hosts))),
    EntryPoint("repro.scanner.zmap:InternetScanner.run_campaign",
               "scanner.campaign", record=True,
               before=_scanner_before, count=_scanner_count),
    EntryPoint("repro.scanner.datasets:DatasetProvider.snapshot",
               "scanner.datasets", record=True),
    EntryPoint("repro.scanner.records:ScanDatabase.merge",
               "scanner.merge", record=True),
    *(
        EntryPoint(f"repro.protocols.base:ProtocolServer.{method}",
                   "protocols.handle", subclasses=True)
        for method in ("accept", "handle", "handle_repeat",
                       "handle_repeat_datagrams")
    ),
    EntryPoint("repro.attacks.schedule:classify_session",
               "honeypots.classify"),
    EntryPoint("repro.attacks.schedule:AttackScheduler.run",
               "attacks.run", record=True,
               before=_attacks_before, count=_attacks_count),
    EntryPoint("repro.telescope.telescope:NetworkTelescope.capture_month",
               "telescope.capture", record=True,
               count=_add("telescope.records",
                          lambda a, k, result: len(result.writer))),
    EntryPoint("repro.net.prng:RandomStream.uniform_array", "prng.batch",
               count=_add("prng.batch_draws",
                          lambda a, k, result: len(result))),
    *(
        EntryPoint(f"{store}.append_batch", "columns.append",
                   count=_add("columns.append_rows",
                              lambda a, k, result: result))
        for store in ("repro.scanner.records:ScanDatabase",
                      "repro.honeypots.events:EventStore")
    ),
    EntryPoint("repro.telescope.flowtuple:FlowTupleWriter.extend_day",
               "columns.append",
               count=_add("columns.append_rows",
                          lambda a, k, result: len(a[2]))),
    # The study flows query the scan and attack stores only through
    # ``where``; the other query methods have no caller to time.
    *(
        EntryPoint(f"{store}.where", "columns.query")
        for store in ("repro.scanner.records:ScanDatabase",
                      "repro.honeypots.events:EventStore")
    ),
    EntryPoint("repro.analysis.fingerprint:HoneypotFingerprinter.fingerprint",
               "analysis.fingerprint", record=True),
    EntryPoint(
        "repro.analysis.fingerprint:HoneypotFingerprinter.active_ssh_probe",
        "analysis.fingerprint", record=True),
    EntryPoint("repro.analysis.misconfig:classify_database",
               "analysis.classify", record=True),
    EntryPoint("repro.analysis.device_type:identify_device_types",
               "analysis.classify", record=True),
    EntryPoint("repro.analysis.country:country_distribution",
               "analysis.classify", record=True),
    EntryPoint("repro.analysis.multistage:detect_multistage",
               "analysis.joins", record=True),
    EntryPoint("repro.analysis.infected:analyze_infected_hosts",
               "analysis.joins", record=True),
    *(
        EntryPoint(f"{target}.build_from", "intel.build", record=True)
        for target in (
            "repro.intel.greynoise:GreyNoiseDB",
            "repro.intel.virustotal:VirusTotalDB",
            "repro.intel.censysiot:CensysIotDB",
            "repro.intel.exonerator:ExoneraTorDB",
        )
    ),
    *(
        EntryPoint(f"{module}:run_tasks", "tasks.run", meter=True,
                   before=_tasks_before, count=_tasks_count)
        for module in ("repro.scanner.zmap", "repro.attacks.schedule",
                       "repro.telescope.telescope")
    ),
    EntryPoint("repro.core.tasks:TaskJournal.store", "tasks.journal_write",
               count=_add("tasks.journal_writes", lambda a, k, result: 1)),
    EntryPoint("repro.core.tasks:TaskJournal.load", "tasks.journal_read",
               count=_add("tasks.journal_reads",
                          lambda a, k, result: int(result[0]))),
    EntryPoint("repro.core.tasks:wrap_envelope", "integrity.wrap",
               count=_add("tasks.journal_bytes",
                          lambda a, k, result: len(result))),
    EntryPoint("repro.core.tasks:unwrap_envelope", "integrity.unwrap"),
    EntryPoint("repro.stream.bus:EventBus.publish", "stream.publish",
               count=_add("stream.publish_rows",
                          lambda a, k, result: result)),
    EntryPoint("repro.stream.operators:OperatorBase.feed",
               lambda args: f"stream.feed.{args[0].name}"),
)

#: The six online operators, in service order (``stream.feed.<name>``).
OPERATORS = ("misconfig", "device_type", "country", "attack_origins",
             "recurrence", "rsdos")

#: Span labels reported as self time in seconds: every workload calls
#: them in the measuring process.
SECONDS_LABELS = (
    "internet.build", "scanner.campaign", "scanner.datasets",
    "scanner.merge", "protocols.handle", "attacks.run", "telescope.capture",
    "columns.append", "columns.query", "analysis.fingerprint",
    "analysis.classify", "intel.build",
)
#: Span labels some workload never calls in the measuring process (they
#: run in pool workers, are served from the journal, or belong to one
#: flow).  Reported as their share of unit wall time, because a seconds
#: figure that is 0 on every run of a workload reads as a frozen timer.
SHARE_LABELS = (
    "honeypots.classify", "prng.batch", "analysis.joins",
    "tasks.journal_write", "tasks.journal_read", "integrity.wrap",
    "integrity.unwrap", "stream.publish",
    *(f"stream.feed.{name}" for name in OPERATORS),
)
#: Labels whose call counts are reported.
CALL_LABELS = ("protocols.handle", "honeypots.classify", "prng.batch",
               "columns.append", "columns.query", "stream.publish")
#: Counters filled by the entry points' count hooks.
COUNTERS = {
    "internet.hosts": "count", "scanner.probes": "count",
    "scanner.records": "count", "attacks.events": "count",
    "attacks.tasks": "count", "telescope.records": "count",
    "prng.batch_draws": "count", "columns.append_rows": "count",
    "tasks.run_s": "s", "tasks.chunk_busy_s": "s",
    "tasks.pool_overhead_s": "s", "tasks.pool_restarts": "count",
    "tasks.journal_writes": "count", "tasks.journal_bytes": "B",
    "tasks.journal_reads": "count", "stream.publish_rows": "count",
}


def _metric_names() -> Dict[str, str]:
    names: Dict[str, str] = {}
    for label in SECONDS_LABELS:
        names[f"{label}_s"] = "s"
    for label in SHARE_LABELS:
        names[f"{label}_share"] = "ratio"
    for label in CALL_LABELS:
        names[f"{label}_calls"] = "count"
    names.update(COUNTERS)
    names.update({
        "stream.replay_s": "s",
        "engine.glue_s": "s",
        "tasks.worker_rss_mb": "MB",
        "trace.top_level_frac": "ratio",
        "trace.overhead_frac": "ratio",
    })
    return names


#: Every per-layer metric name → unit, as ``BENCHMARK.json`` lists them.
LAYERS: Dict[str, str] = _metric_names()


def layer_metrics(unit: Dict[str, Any], wall: float,
                  phase_seconds: float) -> Dict[str, float]:
    """One traced unit's per-layer figures (all but the run-level ones).

    ``unit`` is :meth:`Tracer.stop_unit`'s result; ``wall`` the unit's
    wall time; ``phase_seconds`` the engine's phase total for the unit.
    """
    self_seconds = {label: totals[1] for label, totals in unit["layers"].items()}
    calls = {label: totals[0] for label, totals in unit["layers"].items()}
    metrics: Dict[str, float] = {}
    for label in SECONDS_LABELS:
        metrics[f"{label}_s"] = self_seconds.get(label, 0.0)
    for label in SHARE_LABELS:
        metrics[f"{label}_share"] = self_seconds.get(label, 0.0) / wall
    for label in CALL_LABELS:
        metrics[f"{label}_calls"] = calls.get(label, 0)
    for name in COUNTERS:
        metrics[name] = unit["counters"].get(name, 0)
    metrics["stream.replay_s"] = wall - phase_seconds
    metrics["engine.glue_s"] = wall - unit["top_seconds"]
    metrics["trace.top_level_frac"] = unit["top_seconds"] / wall
    return metrics


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _subclasses(cls: type) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


class Tracer:
    """Spans and per-layer totals for the units it traces.

    Construct once per run (it imports every ``repro`` module so that
    every subclass override exists), then bracket each traced unit with
    :meth:`start_unit` / :meth:`stop_unit`.
    """

    def __init__(self) -> None:
        import repro

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        self.thread = threading.get_ident()
        self.unit = -1
        self.spans: List[Dict[str, Any]] = []
        #: Calls per entry point across every traced unit (coverage).
        self.calls: Counter = Counter({entry.target: 0
                                       for entry in ENTRY_POINTS})
        self._next_id = 1
        self._stack: List[list] = []
        self._layers: Dict[str, list] = {}
        self._counters: Dict[str, float] = defaultdict(float)
        self._top = 0.0
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- unit bracketing ---------------------------------------------------

    def start_unit(self, unit: int) -> None:
        self.unit = unit
        self._layers = {}
        self._counters = defaultdict(float)
        self._top = 0.0
        self._stack = []
        self._install()

    def stop_unit(self) -> Dict[str, Any]:
        self._uninstall()
        return {
            "layers": self._layers,
            "counters": dict(self._counters),
            "top_seconds": self._top,
        }

    # -- installation ------------------------------------------------------

    def _install(self) -> None:
        for entry in ENTRY_POINTS:
            owner, attribute = _resolve(entry.target)
            owners = _subclasses(owner) if entry.subclasses else [owner]
            for cls in owners:
                original = (
                    cls.__dict__.get(attribute) if isinstance(cls, type)
                    else getattr(cls, attribute)
                )
                if original is None:
                    continue  # inherited: the defining class is wrapped
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, entry))
                else:
                    wrapped = self._wrap(original, entry)
                setattr(cls, attribute, wrapped)
                self._installed.append((cls, attribute, original))

    def _uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def _wrap(self, fn: Callable, entry: EntryPoint) -> Callable:
        tracer = self
        key = entry.target
        label = entry.label
        named = label if callable(label) else None
        record = entry.record
        count = entry.count
        before = entry.before
        perf = time.perf_counter
        ident = threading.get_ident

        if entry.meter:
            @functools.wraps(fn)
            def metered(*args, **kwargs):
                if ident() != tracer.thread:
                    return fn(*args, **kwargs)
                tracer.calls[key] += 1
                token = before(args, kwargs)
                start = perf()
                result = fn(*args, **kwargs)
                count(tracer._counters, args, kwargs, result, token,
                      perf() - start)
                return result
            return metered

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if ident() != tracer.thread:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            token = before(args, kwargs) if before is not None else None
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[2] if parent is not None else 0
            frame = [named(args) if named else label, 0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer._close(frame, parent, start, end, record)
            if count is not None:
                count(tracer._counters, args, kwargs, result, token)
            return result
        return spanned

    def _close(self, frame: list, parent: Optional[list], start: float,
               end: float, record: bool) -> None:
        duration = end - start
        totals = self._layers.get(frame[0])
        if totals is None:
            totals = self._layers[frame[0]] = [0, 0.0]
        totals[0] += 1
        totals[1] += duration - frame[1]
        if parent is None:
            self._top += duration
        else:
            parent[1] += duration
        if record:
            self.spans.append({
                "id": frame[2],
                "name": frame[0],
                "start": start,
                "end": end,
                "parent": parent[2] if parent is not None else None,
                "unit": self.unit,
            })
