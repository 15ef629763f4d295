"""Declarative phase-DAG execution engine for the study pipeline.

The paper's methodology is an eight-phase measurement campaign; the engine
models it as a dependency graph over named *artifacts* (``population``,
``zmap_db``, ``merged_db``, ``schedule``, ``telescope`` …) instead of a
hard-coded call sequence:

* each :class:`PhaseSpec` declares the artifacts it *requires* and
  *provides*; asking the engine to :meth:`~StudyEngine.ensure` any artifact
  topologically resolves and runs every prerequisite phase, so partial
  pipelines (the CLI subcommands, the benchmarks) no longer need manual
  ordering — and a *strict* caller gets a typed
  :class:`~repro.net.errors.PhaseOrderError` instead of an ``assert``;
* phases run one at a time, wave by wave, in registration order within
  a wave — the paper's original sequence.  Every stochastic component
  draws from its own named :class:`~repro.net.prng.RandomStream`, so the
  bytes depend on the config alone; multi-core parallelism lives one
  level down, in the process-pool task batches of the three sharded
  planes (:mod:`repro.core.tasks`);
* phase outputs are memoized in a content-addressed :class:`PhaseCache`
  (in-process LRU plus an optional on-disk pickle layer) keyed by
  ``(phase name, config fingerprint)``, so a second run with an equal
  config replays the expensive world/scan phases for free.  Cached
  artifacts are shared objects: treat them as read-only, as the test suite
  already does.  The attack phase detaches the lab honeypots from the
  fabric after the month so a cached world stays pristine for scan phases.

:class:`~repro.core.study.Study` is a thin facade over this module; direct
engine use looks like::

    engine = StudyEngine(StudyConfig.quick())
    engine.ensure("infected")            # runs all eight phases
    print(engine.artifact("misconfig").total)
    print(engine.metrics.render())
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core import faults
from repro.core.config import StudyConfig
from repro.core.integrity import QuarantineRecord, quarantine_file
from repro.core.metrics import PhaseMetric, StudyMetrics
from repro.core.tasks import (
    TaskDeadline,
    TaskJournal,
    read_sealed,
    write_sealed,
)
from repro.net.errors import EngineError, PhaseOrderError

__all__ = [
    "PhaseSpec",
    "PhaseGraph",
    "PhaseCache",
    "CacheStats",
    "StudyEngine",
    "build_study_graph",
    "config_fingerprint",
    "default_cache",
]

#: Bumped whenever phase semantics change, so stale disk caches self-expire.
#: Version 2: disk entries are checksummed :mod:`repro.core.integrity`
#: envelopes instead of bare header dicts.
#: Version 3: every plane store holds NumPy-backed numeric columns; a
#: version-2 entry may hold the ``array`` columns the stores no longer
#: query, so it must miss.
#: Version 4: the scan and attack stores are ``ColumnTable``s keeping
#: their columns in one dict and yielding ``NamedTuple`` rows; a
#: version-3 entry holds the old per-field column attributes.
#: Version 5: XMPP stream ids are numbered per peer, so a serial run's
#: ``shodan_db`` no longer carries ids shifted by our own scan's sessions.
#: Version 6: the telescope's ``FlowTupleWriter`` is a ``ColumnTable``; a
#: version-5 entry unpickles into a writer with per-day chunk lists and no
#: columns, which would load and only fail when queried.
ENGINE_SCHEMA_VERSION = 6


# ---------------------------------------------------------------------------
# Config fingerprinting
# ---------------------------------------------------------------------------

def _normalize(value):
    """Reduce a config value to JSON-stable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _normalize(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if f.compare
            },
        }
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.name]
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _normalize(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def config_fingerprint(config: StudyConfig) -> str:
    """A content hash over the whole study configuration.

    Two configs with equal fingerprints produce byte-identical artifacts,
    so the fingerprint is the cache partition key.
    """
    payload = json.dumps(
        _normalize(config), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(
        f"v{ENGINE_SCHEMA_VERSION}:{payload}".encode("utf-8")
    )
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Phase specifications and the graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpec:
    """One node of the pipeline DAG."""

    name: str
    #: Artifact names this phase materializes.
    provides: Tuple[str, ...]
    #: Artifact names that must be materialized before :attr:`run` is called.
    requires: Tuple[str, ...] = ()
    #: Phase names that must complete first *when scheduled in the same
    #: resolution* — ordering-only edges for phases that touch shared state
    #: without a data dependency (the attack month mutates the fabric the
    #: fingerprinter probes).
    after: Tuple[str, ...] = ()
    #: Paper-level rollup bucket for metrics (``scan``, ``intel`` …).
    group: str = ""
    #: Produces the artifacts; receives the engine as context.
    run: Callable[["StudyEngine"], Dict[str, object]] = None  # type: ignore
    #: Optional item counter for rate metrics.
    count: Optional[Callable[[Dict[str, object]], Optional[int]]] = None
    cacheable: bool = True
    #: Optional phases (extra vantage points, intel enrichment) may fail
    #: under ``fail_policy="degrade"``: the study records them as
    #: ``degraded``, materializes their artifacts as ``None`` and carries
    #: on — the paper's multi-vantage design treats partial data as the
    #: normal case, not the exception.
    optional: bool = False


class PhaseGraph:
    """Registry plus topological resolution over :class:`PhaseSpec` nodes."""

    def __init__(self) -> None:
        self._phases: "OrderedDict[str, PhaseSpec]" = OrderedDict()
        self._provider: Dict[str, str] = {}

    def register(self, spec: PhaseSpec) -> None:
        if spec.name in self._phases:
            raise EngineError(f"phase '{spec.name}' registered twice")
        for artifact in spec.provides:
            if artifact in self._provider:
                raise EngineError(
                    f"artifact '{artifact}' provided by both "
                    f"'{self._provider[artifact]}' and '{spec.name}'"
                )
        self._phases[spec.name] = spec
        for artifact in spec.provides:
            self._provider[artifact] = spec.name

    def phases(self) -> List[PhaseSpec]:
        return list(self._phases.values())

    def phase(self, name: str) -> PhaseSpec:
        try:
            return self._phases[name]
        except KeyError:
            raise PhaseOrderError(
                f"unknown phase '{name}'", missing=(name,)
            ) from None

    def provider_of(self, artifact: str) -> PhaseSpec:
        try:
            return self._phases[self._provider[artifact]]
        except KeyError:
            raise PhaseOrderError(
                f"no phase provides artifact '{artifact}'",
                missing=(artifact,),
            ) from None

    def artifacts(self) -> List[str]:
        return list(self._provider)

    def resolve(
        self,
        artifacts: Iterable[str],
        done: Iterable[str] = (),
    ) -> List[List[PhaseSpec]]:
        """Phases needed to materialize ``artifacts``, as parallel waves.

        ``done`` phases (already executed) are excluded along with their
        transitive contribution.  Each returned wave contains mutually
        independent phases; waves are in dependency order, and phases
        within a wave keep registration (canonical pipeline) order, which
        is the order :meth:`StudyEngine.ensure` runs them in — the paper's
        original sequence.
        """
        done_set = set(done)
        included: "OrderedDict[str, PhaseSpec]" = OrderedDict()
        visiting: List[str] = []

        def visit(spec: PhaseSpec) -> None:
            if spec.name in included or spec.name in done_set:
                return
            if spec.name in visiting:
                cycle = " -> ".join(visiting + [spec.name])
                raise EngineError(f"phase dependency cycle: {cycle}")
            visiting.append(spec.name)
            for requirement in spec.requires:
                visit(self.provider_of(requirement))
            visiting.pop()
            included[spec.name] = spec

        for artifact in artifacts:
            visit(self.provider_of(artifact))

        # Re-order into registration order, then layer into waves.
        ordered = [s for s in self._phases.values() if s.name in included]
        edges: Dict[str, List[str]] = {s.name: [] for s in ordered}
        for spec in ordered:
            for requirement in spec.requires:
                provider = self.provider_of(requirement).name
                if provider in edges:
                    edges[spec.name].append(provider)
            for predecessor in spec.after:
                if predecessor in edges:
                    edges[spec.name].append(predecessor)

        waves: List[List[PhaseSpec]] = []
        placed: set = set()
        remaining = list(ordered)
        while remaining:
            wave = [
                spec for spec in remaining
                if all(dep in placed for dep in edges[spec.name])
            ]
            if not wave:  # defensive: visit() already rejects cycles
                names = ", ".join(spec.name for spec in remaining)
                raise EngineError(f"unschedulable phases: {names}")
            waves.append(wave)
            placed.update(spec.name for spec in wave)
            remaining = [spec for spec in remaining if spec.name not in placed]
        return waves


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`PhaseCache`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    evictions: int = 0
    #: Disk entries that failed envelope verification and were quarantined.
    corrupt: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class PhaseCache:
    """Content-addressed phase-artifact store: in-process LRU + disk.

    Keys are ``(phase name, config fingerprint)`` pairs pre-hashed by the
    engine.  The in-process layer returns the *same* artifact objects to
    every engine sharing the cache — by design, since studies never mutate
    results.  The optional disk layer (``directory=…``) pickles each entry
    atomically and is best-effort: unpicklable artifacts or I/O failures
    (including injected ``cache.io`` faults) degrade to a miss, never an
    error.

    Disk entries are sealed in a checksummed
    :mod:`repro.core.integrity` envelope carrying
    :data:`ENGINE_SCHEMA_VERSION`, the cache key and the config
    fingerprint: a pickle written by older code, for a different config,
    or damaged in storage (bit flip, truncation — any single-bit change
    fails the SHA-256) is *detected* on read, moved to ``quarantine/``
    with a reasoned :class:`~repro.core.integrity.QuarantineRecord`
    (collected in :attr:`quarantined`, counted in ``stats.corrupt``), and
    served as a miss so the phase transparently recomputes.
    """

    def __init__(
        self,
        max_entries: int = 256,
        directory: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.directory = (
            os.path.expanduser(os.fspath(directory)) if directory else None
        )
        self.stats = CacheStats()
        #: Disk entries moved aside by :meth:`get`, in detection order.
        self.quarantined: List[QuarantineRecord] = []
        self._entries: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._lock = threading.Lock()

    # -- keys -------------------------------------------------------------

    @staticmethod
    def key_for(phase: str, fingerprint: str) -> str:
        digest = hashlib.sha256(f"{phase}@{fingerprint}".encode("utf-8"))
        return digest.hexdigest()

    # -- lookup -----------------------------------------------------------

    def get(
        self, key: str, fingerprint: str = ""
    ) -> Tuple[Optional[Dict[str, object]], bool]:
        """Return ``(artifacts, came_from_disk)``; ``(None, False)`` on miss.

        ``fingerprint`` is matched against the disk entry's header; the
        in-process layer needs no check because ``key`` already hashes it.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry, False
        entry = self._disk_load(key, fingerprint)
        if entry is not None:
            with self._lock:
                self._store(key, entry)
                self.stats.hits += 1
                self.stats.disk_hits += 1
            return entry, True
        with self._lock:
            self.stats.misses += 1
        return None, False

    def put(
        self, key: str, artifacts: Dict[str, object], fingerprint: str = ""
    ) -> None:
        with self._lock:
            self._store(key, artifacts)
            self.stats.stores += 1
        self._disk_dump(key, artifacts, fingerprint)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals ---------------------------------------------------------

    def _store(self, key: str, artifacts: Dict[str, object]) -> None:
        self._entries[key] = artifacts
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _disk_path(self, key: str) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{key}.pkl")

    def _quarantine(self, path: str, key: str, reason: str) -> None:
        record = quarantine_file(
            path, key=key, reason=reason, stage="phase.load",
        )
        with self._lock:
            self.stats.corrupt += 1
            if record is not None:
                self.quarantined.append(record)

    def _disk_load(
        self, key: str, fingerprint: str = ""
    ) -> Optional[Dict[str, object]]:
        path = self._disk_path(key)
        if path is None:
            return None
        quarantine = functools.partial(self._quarantine, path, key)
        found, artifacts = read_sealed(
            path, stage="phase.load", schema=ENGINE_SCHEMA_VERSION,
            kind="phase", key=key, fingerprint=fingerprint,
            quarantine=quarantine,
        )
        if not found:
            return None
        if not isinstance(artifacts, dict):
            quarantine("malformed-payload")
            return None
        return artifacts

    def _disk_dump(
        self, key: str, artifacts: Dict[str, object], fingerprint: str = ""
    ) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        # The disk layer is best-effort: a skipped write is a later miss.
        write_sealed(
            path, artifacts, stage="phase.dump", schema=ENGINE_SCHEMA_VERSION,
            kind="phase", key=key, fingerprint=fingerprint,
        )


_DEFAULT_CACHE = PhaseCache()


def default_cache() -> PhaseCache:
    """The process-wide cache :class:`~repro.core.study.Study` uses."""
    return _DEFAULT_CACHE


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class StudyEngine:
    """Schedules, caches and measures the study phase graph."""

    def __init__(
        self,
        config: Optional[StudyConfig] = None,
        *,
        cache: Union[None, bool, PhaseCache] = None,
        graph: Optional[PhaseGraph] = None,
    ) -> None:
        self.config = config or StudyConfig()
        if cache is None or cache is True:
            self.cache: Optional[PhaseCache] = _DEFAULT_CACHE
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache
        self.graph = graph or build_study_graph(self.config)
        self.fingerprint = config_fingerprint(self.config)
        self.metrics = StudyMetrics()
        self._artifacts: Dict[str, object] = {}
        self._done: set = set()
        self._degraded: set = set()
        self._tainted: set = set()
        self._lock = threading.Lock()
        #: Optional observer called with each :class:`PhaseMetric` as its
        #: phase completes (cache hits included).  The streaming campaign
        #: service uses it to surface generation progress live; it must
        #: not mutate engine state and runs outside the engine lock.
        self.on_phase: Optional[Callable[[PhaseMetric], None]] = None

    # -- artifact access ---------------------------------------------------

    def materialized(self, artifact: str) -> bool:
        return artifact in self._artifacts

    def artifact(self, name: str) -> object:
        """A materialized artifact; strict (raises PhaseOrderError)."""
        try:
            return self._artifacts[name]
        except KeyError:
            provider = self.graph.provider_of(name).name
            raise PhaseOrderError(
                f"artifact '{name}' not materialized — run phase "
                f"'{provider}' (or engine.ensure({name!r})) first",
                missing=(name,),
            ) from None

    # -- execution ---------------------------------------------------------

    def ensure(self, *artifacts: str) -> None:
        """Materialize ``artifacts``, running prerequisite phases as needed."""
        missing = [a for a in artifacts if a not in self._artifacts]
        if not missing:
            return
        for wave in self.graph.resolve(missing, done=self._done):
            for spec in wave:
                self._run_phase(spec)

    def run_all(self) -> None:
        """Materialize every artifact the graph knows about."""
        self.ensure(*self.graph.artifacts())

    def task_journal(self, plane: str) -> Optional[TaskJournal]:
        """The per-task completion journal for one measurement plane.

        ``None`` unless the config names a ``journal_dir``.  Entries are
        partitioned by config fingerprint, so a resumed run can only ever
        replay results an identically-configured run produced — a changed
        seed or scale reads as an empty journal.
        """
        journal_dir = getattr(self.config, "journal_dir", None)
        if not journal_dir:
            return None
        directory = os.path.join(
            os.path.expanduser(os.fspath(journal_dir)),
            self.fingerprint[:16],
            plane,
        )
        return TaskJournal(
            directory,
            resume=getattr(self.config, "resume", False),
            fingerprint=self.fingerprint,
        )

    def task_deadline(self) -> Optional[TaskDeadline]:
        """A fresh per-plane deadline supervisor, or ``None`` when unarmed.

        Fresh per call so each plane's stall rows accumulate on its own
        supervisor; the phase records them into :attr:`metrics` when the
        plane finishes.
        """
        spec = getattr(self.config, "task_deadline", None)
        if not spec:
            return None
        return TaskDeadline.parse(spec)

    # -- internals ---------------------------------------------------------

    def _upstream_degraded(self, spec: PhaseSpec) -> Tuple[bool, bool]:
        """``(degraded_input, tainted_input)`` for a phase's requirements.

        ``degraded_input``: some required artifact is ``None`` because its
        provider *degraded* this run — an optional consumer degrades too.
        ``tainted_input``: some requirement was produced downstream of a
        degraded phase, so this phase's output reflects partial data and
        must not be cached where a healthy run would find it.
        """
        with self._lock:
            degraded = set(self._degraded)
            tainted = set(self._tainted)
        providers = [
            self.graph.provider_of(requirement).name
            for requirement in spec.requires
        ]
        return (
            any(name in degraded for name in providers),
            any(name in degraded or name in tainted for name in providers),
        )

    def _run_phase(self, spec: PhaseSpec) -> None:
        started = time.perf_counter()
        artifacts: Optional[Dict[str, object]] = None
        hit = disk = False
        status = "ok"
        key = ""
        degradable = (
            spec.optional
            and getattr(self.config, "fail_policy", "abort") == "degrade"
        )
        degraded_input, tainted_input = self._upstream_degraded(spec)
        if degradable and degraded_input:
            artifacts = {name: None for name in spec.provides}
            status = "degraded"
        use_cache = (
            self.cache is not None and spec.cacheable and not tainted_input
        )
        if artifacts is None and use_cache:
            key = PhaseCache.key_for(spec.name, self.fingerprint)
            artifacts, disk = self.cache.get(key, self.fingerprint)
            hit = artifacts is not None
        if artifacts is None:
            try:
                artifacts = spec.run(self)
            except (PhaseOrderError, EngineError):
                raise  # pipeline bugs, not data failures — never degrade
            except Exception:
                if not degradable:
                    raise
                artifacts = {name: None for name in spec.provides}
                status = "degraded"
            if status == "ok" and use_cache:
                # Degraded (all-None) artifacts and phases fed partial
                # inputs are never cached: a later healthy run must not
                # inherit this run's failures.
                self.cache.put(key, artifacts, self.fingerprint)
        elapsed = time.perf_counter() - started
        items = spec.count(artifacts) if spec.count is not None else None
        metric = PhaseMetric(
            phase=spec.name,
            group=spec.group or spec.name,
            seconds=elapsed,
            cache_hit=hit,
            disk_hit=disk,
            items=items,
            status=status,
        )
        with self._lock:
            self._artifacts.update(artifacts)
            self._done.add(spec.name)
            if status == "degraded":
                self._degraded.add(spec.name)
            elif tainted_input:
                self._tainted.add(spec.name)
            self.metrics.record(metric)
        if self.on_phase is not None:
            self.on_phase(metric)


# ---------------------------------------------------------------------------
# The study graph: the paper's eight phases as specs
# ---------------------------------------------------------------------------

def _phase_world(engine: StudyEngine) -> Dict[str, object]:
    from repro.internet.population import PopulationBuilder
    from repro.net.asn import AsnRegistry
    from repro.net.geo import GeoRegistry

    population = PopulationBuilder(engine.config.population).build()
    return {
        "population": population,
        "geo": GeoRegistry(engine.config.seed),
        "asn": AsnRegistry(engine.config.seed),
    }


def _phase_zmap(engine: StudyEngine) -> Dict[str, object]:
    from repro.scanner.blocklist import (
        EU_COUNTRIES,
        CompositeBlocklist,
        GeoBlocklist,
        zmap_default_blocklist,
    )
    from repro.scanner.zmap import InternetScanner

    population = engine.artifact("population")
    blocklist = zmap_default_blocklist()
    if engine.config.use_eu_blocklist:
        blocklist = CompositeBlocklist(
            [blocklist, GeoBlocklist(engine.artifact("geo"), EU_COUNTRIES)]
        )
    scanner = InternetScanner(
        population.internet, engine.config.scan, blocklist
    )
    journal = engine.task_journal("scan")
    deadline = engine.task_deadline()
    database = scanner.run_campaign(journal=journal, deadline=deadline)
    engine.metrics.record_shards(scanner.shard_timings)
    engine.metrics.record_executor("scan", scanner.executor_stats)
    engine.metrics.record_supervision(
        "scan", journal=journal, deadline=deadline
    )
    engine.metrics.record_store("scan", database)
    return {"zmap_db": database}


def _phase_dataset(engine: StudyEngine, name: str) -> Dict[str, object]:
    """One open-dataset provider's sweep, journaled like the ZMap plane:
    a resumed campaign replays the provider's tasks instead of re-probing
    the world."""
    from repro.scanner.datasets import project_sonar, shodan

    artifact = f"{name}_db"
    if not engine.config.use_open_datasets:
        return {artifact: None}
    faults.maybe_fail("dataset.load", name)
    provider = {"sonar": project_sonar, "shodan": shodan}[name](
        engine.config.seed
    )
    provider.retries = engine.config.scan.retries
    journal = engine.task_journal(name)
    deadline = engine.task_deadline()
    database = provider.snapshot(
        engine.artifact("population").internet,
        journal=journal,
        deadline=deadline,
    )
    engine.metrics.record_supervision(name, journal=journal, deadline=deadline)
    return {artifact: database}


def _phase_merge(engine: StudyEngine) -> Dict[str, object]:
    merged = engine.artifact("zmap_db")
    for name in ("sonar_db", "shodan_db"):
        other = engine.artifact(name)
        if other is not None:
            merged = merged.merge(other)
    return {"merged_db": merged}


def _phase_fingerprint(engine: StudyEngine) -> Dict[str, object]:
    from repro.analysis.fingerprint import HoneypotFingerprinter

    fingerprinter = HoneypotFingerprinter()
    report = fingerprinter.fingerprint(engine.artifact("merged_db"))
    if engine.config.active_fingerprinting:
        population = engine.artifact("population")
        report = fingerprinter.active_ssh_probe(
            population.internet,
            (host.address for host in population.internet.hosts()),
            report=report,
        )
    return {"fingerprints": report}


def _phase_classify(engine: StudyEngine) -> Dict[str, object]:
    from repro.analysis.country import country_distribution
    from repro.analysis.device_type import identify_device_types
    from repro.analysis.misconfig import classify_database

    merged = engine.artifact("merged_db")
    fingerprints = engine.artifact("fingerprints")
    misconfig = classify_database(
        merged, exclude_addresses=fingerprints.addresses()
    )
    return {
        "misconfig": misconfig,
        "device_types": identify_device_types(merged),
        "countries": country_distribution(
            misconfig.all_addresses(), engine.artifact("geo")
        ),
    }


def _phase_attacks(engine: StudyEngine) -> Dict[str, object]:
    from repro.attacks.schedule import AttackScheduler
    from repro.honeypots.deployment import build_deployment

    population = engine.artifact("population")
    deployment = build_deployment()
    if engine.config.capture_pcap:
        for honeypot in deployment.honeypots:
            honeypot.enable_pcap()
    internet = population.internet
    # A cached world may still carry a previous run's lab addresses.
    deployment.detach(internet)
    deployment.attach(internet)
    try:
        scheduler = AttackScheduler(
            internet, deployment, population, engine.config.attacks
        )
        journal = engine.task_journal("attacks")
        deadline = engine.task_deadline()
        schedule = scheduler.run(journal=journal, deadline=deadline)
        engine.metrics.record_tasks(scheduler.task_timings)
        engine.metrics.record_executor("attacks", scheduler.executor_stats)
        engine.metrics.record_supervision(
            "attacks", journal=journal, deadline=deadline
        )
        engine.metrics.record_store("attacks", schedule.log)
    finally:
        # Leave the cached world pristine for scan/fingerprint phases.
        deployment.detach(internet)
    return {"deployment": deployment, "schedule": schedule}


def _phase_telescope(engine: StudyEngine) -> Dict[str, object]:
    from repro.telescope.telescope import NetworkTelescope

    telescope = NetworkTelescope(
        engine.artifact("schedule").registry,
        engine.artifact("geo"),
        engine.artifact("asn"),
        engine.config.telescope,
    )
    journal = engine.task_journal("telescope")
    deadline = engine.task_deadline()
    capture = telescope.capture_month(journal=journal, deadline=deadline)
    engine.metrics.record_tasks(telescope.task_timings)
    engine.metrics.record_executor("telescope", telescope.executor_stats)
    engine.metrics.record_supervision(
        "telescope", journal=journal, deadline=deadline
    )
    engine.metrics.record_store("telescope", capture.writer)
    return {"telescope": capture}


def _phase_greynoise(engine: StudyEngine) -> Dict[str, object]:
    from repro.intel.greynoise import GreyNoiseDB

    faults.maybe_fail("dataset.load", "greynoise")
    schedule = engine.artifact("schedule")
    return {
        "greynoise": GreyNoiseDB.build_from(
            schedule.registry, engine.config.seed
        )
    }


def _phase_virustotal(engine: StudyEngine) -> Dict[str, object]:
    from repro.intel.virustotal import VirusTotalDB

    faults.maybe_fail("dataset.load", "virustotal")
    schedule = engine.artifact("schedule")
    return {
        "virustotal": VirusTotalDB.build_from(
            schedule.registry, schedule.corpus, schedule.rdns,
            engine.config.seed,
        )
    }


def _phase_censys(engine: StudyEngine) -> Dict[str, object]:
    from repro.intel.censysiot import CensysIotDB

    faults.maybe_fail("dataset.load", "censys_iot")
    engine.artifact("schedule")  # ordering: intel follows the attack month
    return {
        "censys_iot": CensysIotDB.build_from(
            engine.artifact("population"), engine.config.seed
        )
    }


def _phase_exonerator(engine: StudyEngine) -> Dict[str, object]:
    from repro.intel.exonerator import ExoneraTorDB

    faults.maybe_fail("dataset.load", "exonerator")
    schedule = engine.artifact("schedule")
    return {"exonerator": ExoneraTorDB.build_from(schedule.registry)}


def _phase_joins(engine: StudyEngine) -> Dict[str, object]:
    from repro.analysis.infected import analyze_infected_hosts
    from repro.analysis.multistage import detect_multistage

    schedule = engine.artifact("schedule")
    misconfig = engine.artifact("misconfig")
    return {
        "multistage": detect_multistage(schedule.log, schedule.rdns),
        "infected": analyze_infected_hosts(
            misconfig.all_addresses(),
            schedule.log,
            engine.artifact("telescope"),
            engine.artifact("virustotal"),
            censys=engine.artifact("censys_iot"),
            rdns=schedule.rdns,
        ),
    }


def _count_db(name: str):
    def count(artifacts: Dict[str, object]) -> Optional[int]:
        database = artifacts.get(name)
        return len(database) if database is not None else None
    return count


def _count_schedule(artifacts: Dict[str, object]) -> Optional[int]:
    schedule = artifacts.get("schedule")
    return len(schedule.log) if schedule is not None else None


def _count_population(artifacts: Dict[str, object]) -> Optional[int]:
    population = artifacts.get("population")
    return len(population.hosts) if population is not None else None


def _count_telescope(artifacts: Dict[str, object]) -> Optional[int]:
    capture = artifacts.get("telescope")
    if capture is None:
        return None
    return sum(capture.packets_by_protocol.values())


def build_study_graph(config: StudyConfig) -> PhaseGraph:
    """The paper's methodology as a :class:`PhaseGraph`.

    Registration order is the canonical run order.  Probe-loss verdicts
    are keyed per probe flow
    (:class:`~repro.internet.fabric.ProbeLossModel`), so the three scan
    snapshots cannot perturb each other whatever order they run in.
    """
    graph = PhaseGraph()
    graph.register(PhaseSpec(
        name="world", provides=("population", "geo", "asn"),
        group="world", run=_phase_world, count=_count_population,
    ))
    graph.register(PhaseSpec(
        name="zmap", provides=("zmap_db",),
        requires=("population", "geo"),
        group="scan", run=_phase_zmap, count=_count_db("zmap_db"),
    ))
    # The sonar/shodan vantage points and the intel stores are optional:
    # under fail_policy="degrade" a failure marks them degraded (their
    # artifacts stay None, as when disabled by config) instead of
    # aborting the study.  merge already tolerates None snapshots; joins
    # cascades to degraded when an intel store it needs degraded.
    graph.register(PhaseSpec(
        name="sonar", provides=("sonar_db",),
        requires=("population",),
        group="scan", run=functools.partial(_phase_dataset, name="sonar"),
        count=_count_db("sonar_db"),
        optional=True,
    ))
    graph.register(PhaseSpec(
        name="shodan", provides=("shodan_db",),
        requires=("population",),
        group="scan", run=functools.partial(_phase_dataset, name="shodan"),
        count=_count_db("shodan_db"),
        optional=True,
    ))
    graph.register(PhaseSpec(
        name="merge", provides=("merged_db",),
        requires=("zmap_db", "sonar_db", "shodan_db"),
        group="scan", run=_phase_merge, count=_count_db("merged_db"),
    ))
    graph.register(PhaseSpec(
        name="fingerprint", provides=("fingerprints",),
        requires=("merged_db", "population"),
        group="fingerprint", run=_phase_fingerprint,
    ))
    graph.register(PhaseSpec(
        name="classify", provides=("misconfig", "device_types", "countries"),
        requires=("merged_db", "fingerprints", "geo"),
        group="classify", run=_phase_classify,
    ))
    graph.register(PhaseSpec(
        name="attacks", provides=("deployment", "schedule"),
        requires=("population",),
        # The month mutates the fabric while it runs; never interleave it
        # with the active fingerprinting probe of the same world.
        after=("fingerprint",),
        group="attacks", run=_phase_attacks, count=_count_schedule,
    ))
    graph.register(PhaseSpec(
        name="telescope", provides=("telescope",),
        requires=("schedule", "geo", "asn"),
        group="telescope", run=_phase_telescope, count=_count_telescope,
    ))
    graph.register(PhaseSpec(
        name="intel.greynoise", provides=("greynoise",),
        requires=("schedule",), group="intel", run=_phase_greynoise,
        optional=True,
    ))
    graph.register(PhaseSpec(
        name="intel.virustotal", provides=("virustotal",),
        requires=("schedule",), group="intel", run=_phase_virustotal,
        optional=True,
    ))
    graph.register(PhaseSpec(
        name="intel.censys", provides=("censys_iot",),
        requires=("population", "schedule"),
        group="intel", run=_phase_censys,
        optional=True,
    ))
    graph.register(PhaseSpec(
        name="intel.exonerator", provides=("exonerator",),
        requires=("schedule",), group="intel", run=_phase_exonerator,
        optional=True,
    ))
    graph.register(PhaseSpec(
        name="joins", provides=("multistage", "infected"),
        requires=("schedule", "telescope", "misconfig", "virustotal",
                  "censys_iot"),
        group="joins", run=_phase_joins,
        optional=True,
    ))
    return graph
