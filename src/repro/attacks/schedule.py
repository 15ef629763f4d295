"""The one-month attack simulation — generator of Tables 7/8's left side.

``AttackScheduler`` reproduces April 2021 against the lab: it plans the
month (:mod:`repro.attacks.plan` builds the attacking population and
schedules its sessions over 30 days), drives every session as real
protocol bytes against the honeypot engines, and lets the honeypots
classify and log what they saw.

:meth:`AttackScheduler.run` is :meth:`AttackScheduler.plan` followed by
*execute* and *merge* (the attack-plane mirror of the scan plane's sharded
campaign):

* *execute* — every (honeypot, day) task drives its sessions against a
  **private clone** of the honeypot's services (the paper's containers
  restarted daily anyway), drawing payload bytes and timestamps from
  ``stream.derive(honeypot, day)``, so each task's output is a pure
  function of the task key and tasks can run on ``config.workers``
  worker processes in any order;
* *merge* — events are sorted into canonical (timestamp, source,
  honeypot) order, session/ICS counters are summed, and task-minted
  malware variants are adopted in canonical task order — byte-identical
  output for every worker count.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.attacks.actors import ActorRegistry
from repro.attacks.malware import MalwareCorpus, TaskCorpusView
from repro.attacks.payloads import build_payloads
from repro.attacks.plan import MonthPlan, MonthPlanner
from repro.core.tasks import (
    EXECUTORS,
    ExecutorStats,
    TaskDeadline,
    TaskJournal,
    TaskPlan,
    TaskRef,
    TaskTiming,
    run_tasks,
)
from repro.net.compat import DATACLASS_KW_ONLY
from repro.honeypots.base import HoneypotDeployment, SessionTranscript
from repro.honeypots.classify import classify_session
from repro.honeypots.events import EventStore
from repro.internet.fabric import SimulatedInternet
from repro.internet.population import Population
from repro.net.errors import ConfigError
from repro.net.prng import RandomStream, keyed_uniform, keyed_uniform_array
from repro.net.rdns import ReverseDns
from repro.protocols.base import ProtocolId, TransportKind, transport_of

__all__ = [
    "AttackScheduleConfig",
    "ScheduleResult",
    "AttackScheduler",
]


@dataclass(**DATACLASS_KW_ONLY)
class AttackScheduleConfig:
    """Scheduler knobs."""

    #: ``None`` inherits the master study seed.
    seed: Optional[int] = None
    attack_scale: int = 16
    days: int = 30
    #: Share of each budget coming from known scanning services (fitted
    #: from Telnet: 12,709 of 47,073 events — §5.1.1).
    scanning_share: float = 0.24
    #: Linear daily growth of malicious traffic (Figure 8's upward trend).
    daily_trend: float = 0.025
    #: Multiplier applied to malicious traffic after each listing event.
    listing_boost: float = 1.22
    #: Fraction of U-Pot/HosTaGe flood budgets concentrated on spike days.
    dos_spike_fraction: float = 0.35
    #: Concurrent (honeypot, day) execution workers.  Output is
    #: byte-identical for every value, so the field is excluded from
    #: equality/fingerprints — worker count is a deployment knob, not an
    #: experiment parameter.
    workers: int = field(default=1, compare=False)
    #: Supervised re-executions per (honeypot, day) task on a transient
    #: fault.  Robustness-only (tasks are pure, so a retry is
    #: byte-identical) and excluded from equality like ``workers``.
    retries: int = field(default=0, compare=False)
    #: Task executor for the per-(honeypot, day) batch (``None`` inherits
    #: the study-level choice; see
    #: :func:`~repro.core.tasks.resolve_executor`).  All executors are
    #: byte-identical, so the knob is excluded from equality/fingerprints.
    executor: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`~repro.net.errors.ConfigError` on invalid knobs."""
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.attack_scale < 1:
            raise ConfigError("attack_scale must be >= 1")
        if not 0 < self.scanning_share < 1:
            raise ConfigError("scanning_share must be in (0, 1)")
        if self.days < 1:
            raise ConfigError("days must be >= 1")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.executor is not None and self.executor not in EXECUTORS:
            raise ConfigError(
                f"executor must be one of {', '.join(EXECUTORS)}; "
                f"got {self.executor!r}"
            )


@dataclass
class ScheduleResult:
    """Everything the month produced."""

    log: EventStore
    registry: ActorRegistry
    rdns: ReverseDns
    corpus: MalwareCorpus
    multistage_sources: Set[int] = field(default_factory=set)
    sessions_attempted: int = 0
    sessions_dropped: int = 0  # service down (crashed under DoS)


@dataclass
class _TaskOutcome:
    """Private per-(honeypot, day) execution result, pre-merge."""

    honeypot: str
    events: List[tuple] = field(default_factory=list)
    attempted: int = 0
    dropped: int = 0
    #: (source address, malware family) observations, in session order.
    #: Addresses, not SourceInfo objects: outcomes are journaled for
    #: crash-safe resume, and a replayed copy of a SourceInfo would not
    #: reach the registry's live ledger — the merge resolves the address
    #: through the registry instead.
    families: List[Tuple[int, str]] = field(default_factory=list)
    #: Task-minted malware variants, in mint order.
    minted: List = field(default_factory=list)
    #: port → attr → integer-counter delta against the pristine services.
    counters: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: (timestamp, transcript) pairs when pcap capture is enabled.
    pcap: List[Tuple[float, SessionTranscript]] = field(default_factory=list)
    timing: Optional[TaskTiming] = None


class AttackScheduler:
    """Drives the month of attacks against a deployment."""

    def __init__(
        self,
        internet: SimulatedInternet,
        deployment: HoneypotDeployment,
        population: Optional[Population] = None,
        config: Optional[AttackScheduleConfig] = None,
        rdns: Optional[ReverseDns] = None,
    ) -> None:
        self.internet = internet
        self.deployment = deployment
        self.population = population
        self.config = config or AttackScheduleConfig()
        self.rdns = rdns if rdns is not None else ReverseDns()
        self.registry = ActorRegistry()
        self.corpus = MalwareCorpus(self.config.seed)
        self._stream = RandomStream(self.config.seed, "attacks")
        #: Per-(honeypot, day) wall times of the last :meth:`run`.
        self.task_timings: List[TaskTiming] = []
        #: Executor kind / worker / chunk accounting of the last :meth:`run`.
        self.executor_stats = ExecutorStats()

    # -- public -----------------------------------------------------------

    def plan(self) -> MonthPlan:
        """Build the actor pools and draw the month's session plan.

        Registers every source in :attr:`registry` (and its domain in
        :attr:`rdns`); call it once per scheduler — :meth:`run` does.
        """
        return MonthPlanner(
            self.deployment, self.population, self.config, self._stream,
            self.registry, self.rdns,
        ).plan()

    def run(
        self,
        journal: Optional[TaskJournal] = None,
        deadline: Optional[TaskDeadline] = None,
    ) -> ScheduleResult:
        """Simulate the month; returns the filled logs and ledgers.

        Plans serially, executes the per-(honeypot, day) tasks on
        ``config.workers`` worker processes (1 = inline), and
        merges in canonical order — output is byte-identical for every
        worker count.

        Tasks run supervised: a failure surfaces as
        :class:`~repro.net.errors.TaskFailure` naming the (honeypot, day)
        task, transient faults retry ``config.retries`` times, and an
        optional ``journal`` records completed tasks so an interrupted
        month resumes with byte-identical output (planning is re-run —
        it is cheap and rebuilds the registry the merge resolves into).
        An optional ``deadline`` arms per-task wall-time supervision.
        """
        plan = self.plan()
        result = ScheduleResult(
            log=self.deployment.log,
            registry=self.registry,
            rdns=self.rdns,
            corpus=self.corpus,
        )
        outcomes = self._execute(plan, journal=journal, deadline=deadline)
        self._merge(outcomes, plan, result)
        return result

    # -- execution and merge -----------------------------------------------

    def _worker_state(self) -> "_AttackWorkerState":
        """The execution state every (honeypot, day) task runs against.

        It is the batch's :class:`~repro.core.tasks.TaskPlan` context: the
        serial rung runs tasks against these live objects, and the
        process rung pickles the same state once per worker.  Both are
        equivalent: tasks only *read* it (services are deep-copied per
        task, variants are minted through per-task views) and every field
        is a pure function of the config, not of execution order.
        """
        return _AttackWorkerState(
            stream=self._stream,
            corpus=self.corpus,
            loss_model=self.internet.loss_model,
            loss_rate=self.internet.loss_rate,
            honeypots={
                honeypot.name: (
                    honeypot.address,
                    honeypot.services,
                    honeypot.pcap is not None,
                )
                for honeypot in self.deployment.honeypots
            },
        )

    def _execute(
        self,
        plan: MonthPlan,
        journal: Optional[TaskJournal] = None,
        deadline: Optional[TaskDeadline] = None,
    ) -> List[_TaskOutcome]:
        """Run every (honeypot, day) task; outcomes come in task order."""
        keys = [
            (honeypot.name, day)
            for honeypot in self.deployment.honeypots
            for day in sorted(
                day for (name, day) in plan.sessions if name == honeypot.name
            )
        ]
        outcomes = run_tasks(
            TaskPlan(
                run=_execute_attack_task,
                payloads=[
                    (name, day, plan.sessions[(name, day)])
                    for name, day in keys
                ],
                context=self._worker_state(),
            ),
            self.config.workers,
            refs=[TaskRef("attacks", name, day) for name, day in keys],
            retries=self.config.retries, journal=journal,
            deadline=deadline,
            executor=self.config.executor,
            stats=self.executor_stats,
        )
        self.task_timings = [outcome.timing for outcome in outcomes]
        return outcomes

    def _merge(
        self,
        outcomes: List[_TaskOutcome],
        plan: MonthPlan,
        result: ScheduleResult,
    ) -> None:
        """Merge task outcomes into ``result`` in canonical order."""
        # Canonical merge: concatenation order is the task order, then one
        # stable sort on the store's canonical key — worker count and
        # completion order are unobservable.
        merged: List[tuple] = []
        for outcome in outcomes:
            merged.extend(outcome.events)
            result.sessions_attempted += outcome.attempted
            result.sessions_dropped += outcome.dropped
            self.corpus.adopt(outcome.minted)
            for address, family in outcome.families:
                if family:
                    source = self.registry.get(address)
                    if source is not None:
                        source.malware_families.add(family)
        merged.sort(key=EventStore.canonical_key)
        result.log.append_batch(merged)

        # Per-honeypot merges: ICS/session counters and pcap captures.
        by_name = {honeypot.name: honeypot for honeypot in self.deployment.honeypots}
        for outcome in outcomes:
            honeypot = by_name[outcome.honeypot]
            for port, deltas in outcome.counters.items():
                server = honeypot.services.get(port)
                if server is None:
                    continue
                for attr, delta in deltas.items():
                    current = getattr(server, attr, 0)
                    if type(current) is int:
                        setattr(server, attr, current + delta)
        for honeypot in self.deployment.honeypots:
            if honeypot.pcap is None:
                continue
            captures = [
                pair
                for outcome in outcomes
                if outcome.honeypot == honeypot.name
                for pair in outcome.pcap
            ]
            captures.sort(key=lambda pair: (pair[0], pair[1].source))
            for timestamp, transcript in captures:
                honeypot.pcap.record(transcript, timestamp)

        # Ground-truth multistage attacks: actors whose sequence landed on
        # >= 2 distinct protocols (every landed stage logged one event).
        for info in plan.multistage:
            protocols = set(result.log.where(source=info.address).column("protocol"))
            if len(protocols) >= 2:
                result.multistage_sources.add(info.address)


# -- worker-side execution (shared by serial and process paths) -----------


@dataclass
class _AttackWorkerState:
    """Picklable execution state shared by every attack task.

    The serial rung runs tasks against the scheduler's live objects; the
    process rung pickles the same state once per worker.  Tasks only read it:
    services are deep-copied per task, "new variant" malware is minted
    through per-task :class:`TaskCorpusView`\\ s, and the loss draws are
    keyed functions of the loss model's identity — so a pickled copy is
    observationally identical to the shared original.
    """

    stream: RandomStream
    corpus: MalwareCorpus
    loss_model: object
    loss_rate: float
    #: honeypot name -> (address, pristine services table, want_pcap).
    honeypots: Dict[str, Tuple[int, Dict[int, object], bool]]


def _reset_services(services: Dict[int, object]) -> None:
    """Clear crash/flood state — the daily container restart."""
    for server in services.values():
        if hasattr(server, "crashed"):
            server.crashed = False
            server.request_count = 0
        if hasattr(server, "denial_of_service"):
            server.denial_of_service = False
            server.outstanding_jobs = 0
        if hasattr(server, "flooded"):
            server.flooded = False


def _int_state(services: Dict[int, object]) -> Dict[int, Dict[str, int]]:
    """Snapshot of every integer counter on a services table."""
    return {
        port: {
            attr: value
            for attr, value in vars(server).items()
            if type(value) is int
        }
        for port, server in services.items()
    }


def _task_lost(
    loss_model,
    src: int,
    dst: int,
    port: int,
    kind: str,
    day: int,
    attempts: Dict[Tuple[int, int, str], int],
) -> bool:
    """Task-local probe-loss draw, keyed per (flow, day, attempt).

    The fabric's shared attempt counters would couple tasks through
    execution order; folding the day into the key keeps the draw a
    pure function of the task instead.
    """
    flow = (src, port, kind)
    attempt = attempts.get(flow, 0)
    attempts[flow] = attempt + 1
    return keyed_uniform(
        loss_model.seed, loss_model.name, src, dst, port, kind, day,
        attempt,
    ) < loss_model.rate


def _payload_runs(payloads: List[bytes]) -> List[Tuple[bytes, int]]:
    """Run-length group a payload list into ``(payload, count)`` pairs.

    Flood and reflection builders emit literal repeats — usually the
    *same* bytes object tens of times — so the identity check
    short-circuits the common case and equality catches
    distinct-but-equal packets (the S7 job flood).  Returns a list
    rather than yielding: a generator frame resumed once per run showed
    up in profiles of the drivers below.
    """
    runs = []
    run, count = None, 0
    for item in payloads:
        if count and (item is run or item == run):
            count += 1
            continue
        if count:
            runs.append((run, count))
        run, count = item, 1
    if count:
        runs.append((run, count))
    return runs


def _drive_tcp_batch(server, payloads, exchanges, session) -> int:
    """One TCP session via run-length grouped ``handle_repeat`` calls.

    Byte-identical to the scalar per-payload loop: a closing reply stops
    the session (``handle_repeat`` truncates its run on close, so a
    short run means the server hung up mid-run).  Returns the total
    attacker bytes recorded — the run arithmetic makes it free here,
    where :attr:`SessionTranscript.request_bytes` would re-walk the
    exchange list per event.
    """
    handle = server.handle
    append = exchanges.append
    nbytes = 0
    for item, count in _payload_runs(payloads):
        if count == 1:
            reply = handle(item, session)
            append((item, reply.data))
            nbytes += len(item)
            if reply.close:
                return nbytes
            continue
        replies = server.handle_repeat(item, count, session)
        for reply in replies:
            append((item, reply.data))
        nbytes += len(item) * len(replies)
        if len(replies) < count or (replies and replies[-1].close):
            return nbytes
    return nbytes


def _drive_udp_batch(
    server, payloads, exchanges, src, dst, port, day, loss_model, lossy,
    attempts,
) -> int:
    """One UDP session via run-length grouped datagram batches.

    Loss verdicts for a run come from one vectorized
    :func:`keyed_uniform_array` block (element ``k`` is exactly the
    :func:`_task_lost` draw for the flow's ``first + k``-th attempt); the
    surviving datagrams are then handled in order as one
    ``handle_repeat_datagrams`` batch and interleaved back between the
    losses — server state only ever advances on handled datagrams, so
    the transcript matches the scalar loop byte for byte.  Returns the
    total attacker bytes recorded (lost datagrams still count: the
    attacker sent them).
    """
    handle = server.handle
    open_session = server.open_session
    append = exchanges.append
    nbytes = 0
    for item, count in _payload_runs(payloads):
        nbytes += len(item) * count
        if count == 1:
            if lossy and _task_lost(
                loss_model, src, dst, port, "udp", day, attempts
            ):
                append((item, b""))
            else:
                reply = handle(item, open_session(peer=src))
                append((item, reply.data if reply.data else b""))
            continue
        if not lossy:
            for reply in server.handle_repeat_datagrams(item, count, peer=src):
                append((item, reply.data if reply.data else b""))
            continue
        flow = (src, port, "udp")
        first = attempts.get(flow, 0)
        attempts[flow] = first + count
        verdicts = (
            keyed_uniform_array(
                loss_model.seed, loss_model.name, count,
                src, dst, port, "udp", day, start=first,
            ) < loss_model.rate
        ).tolist()
        survivors = count - sum(verdicts)
        replies = iter(
            server.handle_repeat_datagrams(item, survivors, peer=src)
            if survivors
            else ()
        )
        for lost in verdicts:
            if lost:
                append((item, b""))
            else:
                reply = next(replies)
                append((item, reply.data if reply.data else b""))
    return nbytes


def _execute_attack_task(state: _AttackWorkerState, payload) -> _TaskOutcome:
    """Execute one ``(honeypot, day, sessions)`` task against cloned services.

    The ``run`` of the month's :class:`~repro.core.tasks.TaskPlan`, on
    either executor rung.  Everything the task touches is task-private,
    so the outcome is a pure function of (seed, honeypot, day, session
    plan) regardless of which worker runs it when.  Payload draws come
    from ``stream.derive(name, day)``, the day's timestamps from one
    vectorized block on ``stream.derive(name, day, "ts")``, and
    identical-payload runs collapse to ``handle_repeat`` fast paths with
    repeated transcripts classified once per distinct exchange sequence.
    ``tests/oracles/scalar_attack_task.py`` keeps the per-event,
    per-payload version this path is pinned against.
    """
    honeypot_name, day, sessions = payload
    honeypot_address, pristine, want_pcap = state.honeypots[honeypot_name]
    start = time.perf_counter()
    stream = state.stream.derive(honeypot_name, day)
    ts_stream = state.stream.derive(honeypot_name, day, "ts")
    day_base = day * 86_400.0
    timestamps = [
        day_base + 86_399 * float(unit)
        for unit in ts_stream.uniform_array(len(sessions))
    ]
    services = copy.deepcopy(pristine)
    base_state = _int_state(services)
    corpus_view = TaskCorpusView(state.corpus)
    outcome = _TaskOutcome(honeypot=honeypot_name)
    events = outcome.events
    loss_model = state.loss_model
    lossy = state.loss_rate > 0
    attempts: Dict[Tuple[int, int, str], int] = {}
    classified: dict = {}

    current_protocol: Optional[ProtocolId] = None
    port: Optional[int] = None
    server = None
    is_udp = False
    for index, planned in enumerate(sessions):
        protocol = planned.protocol
        if protocol is not current_protocol:
            # Protocol boundary == the daily container restart: each
            # (protocol, day) batch starts on live services.
            _reset_services(services)
            current_protocol = protocol
            ports = [
                p for p, candidate in services.items()
                if candidate.protocol == protocol
            ]
            port = ports[0] if ports else None
            server = services.get(port) if port is not None else None
            is_udp = transport_of(protocol) == TransportKind.UDP
        source = planned.source
        payloads, malware_hash = build_payloads(
            planned.intent, protocol, stream, corpus_view
        )
        outcome.attempted += 1
        if server is None:
            outcome.dropped += 1
            continue
        src = source.address
        transcript = SessionTranscript(
            protocol=protocol, port=port, source=src
        )
        exchanges = transcript.exchanges
        if is_udp:
            request_total = _drive_udp_batch(
                server, payloads, exchanges, src, honeypot_address,
                port, day, loss_model, lossy, attempts,
            )
        else:
            if lossy and _task_lost(
                loss_model, src, honeypot_address, port, "tcp",
                day, attempts,
            ):
                outcome.dropped += 1
                continue
            tcp_session = server.open_session(peer=src)
            transcript.banner = server.accept(tcp_session)
            request_total = _drive_tcp_batch(
                server, payloads, exchanges, tcp_session
            )
        timestamp = timestamps[index]
        # Flood sessions repeat the exact same transcript; classify is a
        # pure function of it, so memoize per task.
        memo_key = (protocol, transcript.banner, tuple(exchanges))
        cached = classified.get(memo_key)
        if cached is None:
            cached = classified[memo_key] = classify_session(transcript)
        attack_type, summary = cached
        events.append((
            honeypot_name, protocol, src, day, timestamp, attack_type,
            source.actor, summary, malware_hash, request_total,
        ))
        if want_pcap:
            outcome.pcap.append((timestamp, transcript))
        if malware_hash:
            outcome.families.append(
                (src, corpus_view.family_of(malware_hash))
            )

    # Integer-counter deltas (ICS request/poison tallies etc.) merge
    # additively back onto the real deployment after the month.
    for task_port, task_server in services.items():
        base = base_state.get(task_port, {})
        deltas = {
            attr: value - base.get(attr, 0)
            for attr, value in vars(task_server).items()
            if type(value) is int and value != base.get(attr, 0)
        }
        if deltas:
            outcome.counters[task_port] = deltas
    outcome.minted = corpus_view.minted
    outcome.timing = TaskTiming(
        plane="attacks",
        unit=honeypot_name,
        day=day,
        seconds=time.perf_counter() - start,
        events=len(events),
    )
    return outcome
