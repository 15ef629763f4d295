"""The one-month attack simulation — generator of Tables 7/8's left side.

``AttackScheduler`` reproduces April 2021 against the lab: it builds the
attacking population (scanning services, bots, DoS actors, one-shot
scanners), schedules their sessions over 30 days, drives every session as
real protocol bytes against the honeypot engines, and lets the honeypots
classify and log what they saw.

The month runs as a **plan / execute / merge** pipeline (the attack-plane
mirror of the scan plane's sharded campaign):

1. *plan* (serial) — population building, budget scaling and every
   source/intent pick, drawn from the scheduler's named child streams
   exactly as before; the output is a per-(honeypot, day) session list;
2. *execute* — every (honeypot, day) task drives its sessions against a
   **private clone** of the honeypot's services (the paper's containers
   restarted daily anyway), drawing payload bytes and timestamps from
   ``stream.derive(honeypot, day)``, so each task's output is a pure
   function of the task key and tasks can run on ``config.workers``
   worker processes in any order;
3. *merge* — events are sorted into canonical (timestamp, source,
   honeypot) order, session/ICS counters are summed, and task-minted
   malware variants are adopted in canonical task order — byte-identical
   output for every worker count.

Fitted inputs (all named constants below, every one traceable to the paper):

* per-honeypot/protocol event budgets — Table 7;
* per-honeypot unique source splits — Table 7's last three columns;
* malicious attack-type mixes per protocol — Figures 4/7 qualitatively;
* listing days of the search engines — the markers of Figure 8;
* the two major DoS days (24 and 26, 1-based) — Figure 8's annotations;
* the §5.3 intersection targets (11,118 = 1,147 + 1,274 + 8,697; Censys
  adds 1,671 = 439 + 564 + 668; 151 Tor relays; 797 domains).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.attacks.actors import ActorRegistry, SourceInfo
from repro.attacks.malware import MalwareCorpus, TaskCorpusView
from repro.attacks.payloads import build_payloads
from repro.attacks.scanning_services import SCANNING_SERVICES
from repro.core.scaling import apportion, scale_count
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
from repro.core.taxonomy import AttackType, TrafficClass
from repro.net.compat import DATACLASS_KW_ONLY
from repro.honeypots.base import (
    HoneypotDeployment,
    LabHoneypot,
    SessionTranscript,
)
from repro.honeypots.classify import classify_session
from repro.honeypots.events import EventStore
from repro.internet.fabric import SimulatedInternet
from repro.internet.population import Population
from repro.net.errors import ConfigError
from repro.net.ipv4 import AddressAllocator, CidrBlock
from repro.net.prng import RandomStream, keyed_uniform, keyed_uniform_array
from repro.net.rdns import ReverseDns
from repro.protocols.base import ProtocolId, TransportKind, transport_of

__all__ = [
    "PAPER_HONEYPOT_EVENTS",
    "PAPER_HONEYPOT_SOURCES",
    "MALICIOUS_TYPE_MIX",
    "MULTISTAGE_SEQUENCES",
    "AttackScheduleConfig",
    "PlannedSession",
    "ScheduleResult",
    "AttackScheduler",
]

_P = ProtocolId

#: Table 7: attack events per honeypot and protocol.
PAPER_HONEYPOT_EVENTS: Dict[Tuple[str, ProtocolId], int] = {
    ("HosTaGe", _P.TELNET): 19_733,
    ("HosTaGe", _P.MQTT): 2_511,
    ("HosTaGe", _P.AMQP): 2_780,
    ("HosTaGe", _P.COAP): 11_543,
    ("HosTaGe", _P.SSH): 19_174,
    ("HosTaGe", _P.HTTP): 16_192,
    ("HosTaGe", _P.SMB): 1_830,
    ("U-Pot", _P.UPNP): 17_101,
    ("Conpot", _P.SSH): 12_837,
    ("Conpot", _P.TELNET): 12_377,
    ("Conpot", _P.S7): 7_113,
    ("Conpot", _P.HTTP): 11_313,
    ("ThingPot", _P.XMPP): 11_344,
    ("Cowrie", _P.SSH): 15_459,
    ("Cowrie", _P.TELNET): 14_963,
    ("Dionaea", _P.HTTP): 11_974,
    ("Dionaea", _P.MQTT): 1_557,
    ("Dionaea", _P.FTP): 3_565,
    ("Dionaea", _P.SMB): 6_873,
}

#: Modbus attacks on Conpot are described in §5.1.4 but carry no count in
#: Table 7; this estimate keeps the protocol exercised (documented in
#: EXPERIMENTS.md as a fitted, non-published input).
MODBUS_EVENTS_ESTIMATE = 2_400
PAPER_HONEYPOT_EVENTS[("Conpot", _P.MODBUS)] = MODBUS_EVENTS_ESTIMATE

#: Table 7: unique source IPs per honeypot — (scanning, malicious, unknown).
PAPER_HONEYPOT_SOURCES: Dict[str, Tuple[int, int, int]] = {
    "HosTaGe": (2_866, 21_189, 2_347),
    "U-Pot": (1_121, 7_814, 1_786),
    "Conpot": (1_678, 11_765, 1_876),
    "ThingPot": (967, 2_172, 963),
    "Cowrie": (2_111, 12_874, 1_113),
    "Dionaea": (1_953, 13_876, 1_694),
}

#: §5.3: misconfigured devices seen attacking — honeypots only / telescope
#: only / both — and the Censys-IoT extension triple.
PAPER_INFECTED_SPLIT = (1_147, 1_274, 8_697)
PAPER_CENSYS_IOT_SPLIT = (439, 564, 668)
PAPER_TOR_EXITS = 151
PAPER_REGISTERED_DOMAINS = 797
PAPER_DOMAINS_WITH_WEBPAGE = 427
PAPER_MALICIOUS_URLS = 346
PAPER_MULTISTAGE_ATTACKS = 267

#: Attack-type mix of malicious traffic per protocol (weights; the shapes of
#: Figures 4 and 7 — e.g. U-Pot's UPnP is >80% DoS-related, §5.1.3).
MALICIOUS_TYPE_MIX: Dict[ProtocolId, List[Tuple[AttackType, float]]] = {
    _P.TELNET: [(AttackType.BRUTE_FORCE, 40), (AttackType.DICTIONARY, 18),
                (AttackType.MALWARE_DROP, 28), (AttackType.SCANNING, 14)],
    _P.SSH: [(AttackType.BRUTE_FORCE, 35), (AttackType.DICTIONARY, 28),
             (AttackType.MALWARE_DROP, 23), (AttackType.SCANNING, 14)],
    _P.MQTT: [(AttackType.DATA_POISONING, 45), (AttackType.DISCOVERY, 33),
              (AttackType.SCANNING, 12), (AttackType.DOS_FLOOD, 10)],
    _P.AMQP: [(AttackType.DATA_POISONING, 45), (AttackType.DISCOVERY, 18),
              (AttackType.DOS_FLOOD, 27), (AttackType.SCANNING, 10)],
    _P.XMPP: [(AttackType.BRUTE_FORCE, 38), (AttackType.DICTIONARY, 22),
              (AttackType.DATA_POISONING, 22), (AttackType.SCANNING, 18)],
    _P.COAP: [(AttackType.DISCOVERY, 28), (AttackType.DATA_POISONING, 22),
              (AttackType.DOS_FLOOD, 25), (AttackType.REFLECTION, 18),
              (AttackType.SCANNING, 7)],
    _P.UPNP: [(AttackType.DISCOVERY, 12), (AttackType.DOS_FLOOD, 60),
              (AttackType.REFLECTION, 22), (AttackType.SCANNING, 6)],
    _P.SMB: [(AttackType.EXPLOIT, 55), (AttackType.MALWARE_DROP, 32),
             (AttackType.SCANNING, 13)],
    _P.S7: [(AttackType.DATA_POISONING, 45), (AttackType.DOS_FLOOD, 33),
            (AttackType.SCANNING, 22)],
    _P.MODBUS: [(AttackType.DATA_POISONING, 60), (AttackType.SCANNING, 40)],
    _P.HTTP: [(AttackType.WEB_SCRAPING, 32), (AttackType.BRUTE_FORCE, 20),
              (AttackType.DICTIONARY, 12), (AttackType.DOS_FLOOD, 18),
              (AttackType.MALWARE_DROP, 10), (AttackType.SCANNING, 8)],
    _P.FTP: [(AttackType.BRUTE_FORCE, 38), (AttackType.DICTIONARY, 24),
             (AttackType.MALWARE_DROP, 30), (AttackType.SCANNING, 8)],
}

#: Multistage protocol sequences (Figure 9: most start Telnet/SSH, SMB
#: dominates step two, S7 step three) with relative weights.
MULTISTAGE_SEQUENCES: List[Tuple[Tuple[ProtocolId, ...], float]] = [
    ((_P.TELNET, _P.SMB, _P.S7), 5.0),
    ((_P.SSH, _P.SMB, _P.S7), 4.0),
    ((_P.TELNET, _P.SSH, _P.SMB), 3.0),
    ((_P.TELNET, _P.HTTP), 3.0),
    ((_P.SSH, _P.SMB), 3.0),
    ((_P.TELNET, _P.MQTT), 2.0),
    ((_P.SSH, _P.HTTP, _P.SMB), 2.0),
]

#: Figure 8's annotated major-DoS days (0-based: paper days 24 and 26).
DOS_SPIKE_DAYS = (23, 25)



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


@dataclass(frozen=True)
class PlannedSession:
    """One pre-drawn session: who attacks what with which intent.

    Planning fixes everything *decision*-shaped; the executing task only
    draws payload bytes and the in-day timestamp from its derived stream.
    """

    protocol: ProtocolId
    source: SourceInfo
    intent: AttackType


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
        self._allocator = AddressAllocator(
            [CidrBlock.parse("2.0.0.0/7"), CidrBlock.parse("80.0.0.0/4"),
             CidrBlock.parse("176.0.0.0/5"), CidrBlock.parse("200.0.0.0/6")],
            self._stream.child("allocator"),
        )
        self._used_population_hosts: Set[int] = set()
        #: Per-(honeypot, day) wall times of the last :meth:`run`.
        self.task_timings: List[TaskTiming] = []
        #: Executor kind / worker / chunk accounting of the last :meth:`run`.
        self.executor_stats = ExecutorStats()

    # -- public -----------------------------------------------------------

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
        result = ScheduleResult(
            log=self.deployment.log,
            registry=self.registry,
            rdns=self.rdns,
            corpus=self.corpus,
        )
        self._mark_listings()
        infected_pools = self._build_infected_pools()
        sources = self._build_sources(infected_pools)
        budgets = self._scaled_budgets()
        plan: Dict[Tuple[str, int], List[PlannedSession]] = {}
        multistage_actors = self._plan_multistage(sources, budgets, plan)
        for honeypot in self.deployment.honeypots:
            self._plan_honeypot(honeypot, sources[honeypot.name], budgets, plan)
        self._execute(
            plan, multistage_actors, result,
            journal=journal, deadline=deadline,
        )
        return result

    # -- population of sources ----------------------------------------------

    def _scaled(self, count: int) -> int:
        return scale_count(count, self.config.attack_scale)

    def _mark_listings(self) -> None:
        for honeypot in self.deployment.honeypots:
            for service in SCANNING_SERVICES:
                if service.listing_day is not None:
                    honeypot.listing_days[service.name] = service.listing_day

    def _build_infected_pools(self) -> Dict[str, List[SourceInfo]]:
        """Sources that are misconfigured devices / Censys-IoT devices.

        Returns honeypot-visiting infected sources (to be mixed into the
        malicious pools); telescope-only infected sources are registered
        directly with ``visits_telescope`` so the telescope layer emits from
        them.
        """
        pools: Dict[str, List[SourceInfo]] = {"infected": [], "censys": []}
        if self.population is None:
            return pools
        stream = self._stream.child("infected")

        misconfig_hosts = sorted(
            self.population.misconfigured_addresses()
        )
        stream.shuffle(misconfig_hosts)
        hp_only, tel_only, both = (
            self._scaled(PAPER_INFECTED_SPLIT[0]),
            self._scaled(PAPER_INFECTED_SPLIT[1]),
            self._scaled(PAPER_INFECTED_SPLIT[2]),
        )
        needed = hp_only + tel_only + both
        chosen = misconfig_hosts[:needed]
        for index, address in enumerate(chosen):
            visits_hp = index < hp_only + both
            visits_tel = index >= hp_only
            info = SourceInfo(
                address=address,
                traffic_class=TrafficClass.MALICIOUS,
                actor="infected-device",
                infected_misconfigured=True,
                visits_honeypots=visits_hp,
                visits_telescope=visits_tel,
            )
            host = self.population.internet.host_at(address)
            if host is not None:
                host.infected = True
                host.infected_by = "mirai"
            self.registry.register(info)
            if visits_hp:
                pools["infected"].append(info)
            self._used_population_hosts.add(address)

        # Censys-IoT extension: IoT-typed hosts outside the misconfig set.
        iot_candidates = [
            host for host in self.population.hosts
            if not host.is_honeypot
            and host.address not in self._used_population_hosts
            and host.misconfig.value == "none"
            and host.device_type not in ("Server",)
        ]
        stream.shuffle(iot_candidates)
        c_hp, c_tel, c_both = (
            self._scaled(PAPER_CENSYS_IOT_SPLIT[0]),
            self._scaled(PAPER_CENSYS_IOT_SPLIT[1]),
            self._scaled(PAPER_CENSYS_IOT_SPLIT[2]),
        )
        for index, host in enumerate(iot_candidates[: c_hp + c_tel + c_both]):
            visits_hp = index < c_hp + c_both
            visits_tel = index >= c_hp
            info = SourceInfo(
                address=host.address,
                traffic_class=TrafficClass.MALICIOUS,
                actor="infected-iot",
                censys_iot=True,
                censys_device_type=host.device_type,
                visits_honeypots=visits_hp,
                visits_telescope=visits_tel,
            )
            host.infected = True
            host.infected_by = "mirai"
            self.registry.register(info)
            if visits_hp:
                pools["censys"].append(info)
            self._used_population_hosts.add(host.address)
        return pools

    def _build_sources(
        self, infected_pools: Dict[str, List[SourceInfo]]
    ) -> Dict[str, Dict[str, List[SourceInfo]]]:
        """Per-honeypot pools: scanning / malicious / unknown sources."""
        stream = self._stream.child("sources")
        services = list(SCANNING_SERVICES)
        service_weights = [service.weight for service in services]

        # Distribute infected honeypot-visiting sources over honeypots
        # proportionally to their malicious-pool sizes.
        mal_sizes = {
            name: self._scaled(counts[1])
            for name, counts in PAPER_HONEYPOT_SOURCES.items()
        }
        hp_infected = list(infected_pools["infected"]) + list(infected_pools["censys"])
        stream.shuffle(hp_infected)

        tor_budget = self._scaled(PAPER_TOR_EXITS)
        domain_budget = self._scaled(PAPER_REGISTERED_DOMAINS)
        webpage_budget = self._scaled(PAPER_DOMAINS_WITH_WEBPAGE)
        malicious_url_budget = self._scaled(PAPER_MALICIOUS_URLS)

        pools: Dict[str, Dict[str, List[SourceInfo]]] = {}
        total_mal = sum(mal_sizes.values()) or 1
        infected_cursor = 0
        for honeypot in self.deployment.honeypots:
            n_scan, n_mal, n_unknown = (
                self._scaled(PAPER_HONEYPOT_SOURCES[honeypot.name][0]),
                mal_sizes[honeypot.name],
                self._scaled(PAPER_HONEYPOT_SOURCES[honeypot.name][2]),
            )
            scan_sources = []
            for index in range(n_scan):
                service = stream.choices(services, service_weights, k=1)[0]
                address = self._allocator.allocate()
                domain = f"scan{index:04d}.{service.rdns_domain}"
                self.rdns.register(address, domain)
                info = SourceInfo(
                    address=address,
                    traffic_class=TrafficClass.SCANNING_SERVICE,
                    actor=service.name.lower().replace(" ", "-"),
                    service_name=service.name,
                    rdns_domain=domain,
                    visits_honeypots=True,
                    visits_telescope=True,
                )
                scan_sources.append(self.registry.register(info))

            share = mal_sizes[honeypot.name] / total_mal
            take = min(
                len(hp_infected) - infected_cursor,
                int(round(share * len(hp_infected))),
            )
            mal_sources = hp_infected[infected_cursor : infected_cursor + take]
            infected_cursor += take
            supports_http = bool(honeypot.ports_for(_P.HTTP))
            while len(mal_sources) < n_mal:
                address = self._allocator.allocate()
                info = SourceInfo(
                    address=address,
                    traffic_class=TrafficClass.MALICIOUS,
                    actor="botnet",
                    visits_honeypots=True,
                    visits_telescope=stream.bernoulli(0.6),
                )
                if supports_http and tor_budget > 0 and stream.bernoulli(0.02):
                    info.tor_exit = True
                    info.actor = "tor-scraper"
                    tor_budget -= 1
                elif domain_budget > 0 and stream.bernoulli(0.08):
                    domain = f"host-{stream.hex_token(4)}.example-{stream.hex_token(2)}.com"
                    has_page = webpage_budget > 0
                    serves_malware = has_page and malicious_url_budget > 0
                    page_kind = ""
                    if has_page:
                        page_kind = stream.choice(
                            ["wordpress-default", "apache-test",
                             "static-ads", "fake-shop"]
                        )
                        webpage_budget -= 1
                    if serves_malware:
                        malicious_url_budget -= 1
                    self.rdns.register(
                        address, domain, has_webpage=has_page,
                        page_kind=page_kind, serves_malware=serves_malware,
                    )
                    info.rdns_domain = domain
                    domain_budget -= 1
                mal_sources.append(self.registry.register(info))

            unknown_sources = []
            for _ in range(n_unknown):
                address = self._allocator.allocate()
                info = SourceInfo(
                    address=address,
                    traffic_class=TrafficClass.UNKNOWN,
                    actor="one-shot-scanner",
                    visits_honeypots=True,
                    visits_telescope=stream.bernoulli(0.3),
                )
                unknown_sources.append(self.registry.register(info))

            pools[honeypot.name] = {
                "scanning": scan_sources,
                "malicious": mal_sources,
                "unknown": unknown_sources,
            }

        # §5.1.3 case study: two CoAP flood sources shared one DNS entry
        # pointing at an Apache default page — reflection infrastructure.
        hostage_pool = pools.get("HosTaGe", {}).get("malicious", [])
        if len(hostage_pool) >= 2:
            pair = hostage_pool[:2]
            domain = "amplifier-pool.example-hosting.net"
            for info in pair:
                self.rdns.register(
                    info.address, domain,
                    has_webpage=True, page_kind="apache-test",
                )
                info.rdns_domain = domain
                info.actor = "reflection-infra"
        return pools

    # -- scheduling --------------------------------------------------------

    def _scaled_budgets(self) -> Dict[Tuple[str, ProtocolId], int]:
        return {
            key: self._scaled(count)
            for key, count in PAPER_HONEYPOT_EVENTS.items()
        }

    def _day_weights(self, honeypot: LabHoneypot) -> List[float]:
        """Malicious/unknown daily weights: trend plus listing boosts."""
        weights = []
        for day in range(self.config.days):
            weight = 1.0 + self.config.daily_trend * day
            for listing_day in honeypot.listing_days.values():
                if day >= listing_day:
                    weight *= self.config.listing_boost
            weights.append(weight)
        return weights

    def _allocate_days(
        self, total: int, weights: Sequence[float]
    ) -> List[int]:
        """Largest-remainder allocation of ``total`` events over days."""
        scaled = apportion(
            {day: int(weight * 10_000) for day, weight in enumerate(weights)},
            1,
            total_override=total,
        )
        return [scaled[day] for day in range(len(weights))]

    def _plan_honeypot(
        self,
        honeypot: LabHoneypot,
        pools: Dict[str, List[SourceInfo]],
        budgets: Dict[Tuple[str, ProtocolId], int],
        plan: Dict[Tuple[str, int], List[PlannedSession]],
    ) -> None:
        """Draw one honeypot's month of session picks (no execution).

        Every decision-shaped draw happens here, on the honeypot's serial
        stream; payload and timestamp draws happen in the per-(honeypot,
        day) execution streams.
        """
        stream = self._stream.child(f"run.{honeypot.name}")
        protocols = [
            protocol for (name, protocol) in budgets if name == honeypot.name
        ]
        day_weights = self._day_weights(honeypot)
        unknown_pool = list(pools["unknown"])
        stream.shuffle(unknown_pool)
        unknown_cursor = 0
        scan_pool = pools["scanning"]

        # Malicious sources stick to one protocol (real bots are
        # single-purpose; the multistage actors are the deliberate
        # exception) — partition the pool proportionally to budgets.
        budget_sum = sum(budgets[(honeypot.name, p)] for p in protocols) or 1
        mal_partition: Dict[ProtocolId, List[SourceInfo]] = {}
        mal_pool = list(pools["malicious"])
        stream.shuffle(mal_pool)
        # Tor-exit scrapers are HTTP actors by construction (§5.1.6) —
        # place them inside the pool slice that becomes the HTTP partition.
        if _P.HTTP in protocols:
            tor_sources = [info for info in mal_pool if info.tor_exit]
            if tor_sources:
                others = [info for info in mal_pool if not info.tor_exit]
                http_index = protocols.index(_P.HTTP)
                preceding_share = sum(
                    budgets[(honeypot.name, p)]
                    for p in protocols[:http_index]
                ) / budget_sum
                insert_at = min(
                    len(others), int(round(preceding_share * len(mal_pool)))
                )
                mal_pool = (
                    others[:insert_at] + tor_sources + others[insert_at:]
                )
        cursor = 0
        for index, protocol in enumerate(protocols):
            if index == len(protocols) - 1:
                chunk = mal_pool[cursor:]
            else:
                share = budgets[(honeypot.name, protocol)] / budget_sum
                size = int(round(share * len(mal_pool)))
                chunk = mal_pool[cursor : cursor + size]
                cursor += size
            mal_partition[protocol] = chunk

        name = honeypot.name
        for protocol in protocols:
            total = budgets[(name, protocol)]
            if total <= 0:
                continue
            n_scan = int(round(total * self.config.scanning_share))
            # Unknown sources hit once each; spread them across protocols
            # proportionally to budget size.
            n_unknown = min(
                len(unknown_pool) - unknown_cursor,
                int(round(len(unknown_pool) * total / budget_sum)),
            )
            n_mal = max(0, total - n_scan - n_unknown)

            # The Figure 8 DoS spikes are carved out of the malicious
            # budget, not added on top — totals stay Table 7-shaped.
            spike_budget = 0
            if protocol in (_P.UPNP, _P.COAP):
                spike_budget = int(n_mal * self.config.dos_spike_fraction)
                n_mal -= spike_budget
            per_day_spike = [0] * self.config.days
            for offset, spike_day in enumerate(DOS_SPIKE_DAYS):
                if spike_day < self.config.days:
                    per_day_spike[spike_day] = spike_budget // len(DOS_SPIKE_DAYS)
                    if offset == 0:
                        per_day_spike[spike_day] += spike_budget % len(
                            DOS_SPIKE_DAYS
                        )

            per_day_mal = self._allocate_days(n_mal, day_weights)
            per_day_scan = self._allocate_days(n_scan, [1.0] * self.config.days)
            per_day_unknown = self._allocate_days(
                n_unknown, [1.0] * self.config.days
            )
            spike_types = (AttackType.DOS_FLOOD, AttackType.REFLECTION)

            partition = mal_partition.get(protocol, [])
            mal_weights = [1.0 / (rank + 1) for rank in range(len(partition))]
            # Static weight tables feed one pick per planned session, so
            # the cumulative tables are hoisted out of the day loop; each
            # ``pick()`` replays ``choices(..., k=1)[0]`` bit-for-bit.
            mal_picker = (
                stream.weighted_picker(partition, mal_weights)
                if partition else None
            )
            fresh_cursor = 0  # every source attacks at least once if budget allows

            def pick_malicious():
                nonlocal fresh_cursor
                if mal_picker is None:
                    return None
                if fresh_cursor < len(partition):
                    source = partition[fresh_cursor]
                    fresh_cursor += 1
                    return source
                return mal_picker.pick()

            # Risk-rating platforms concentrate on Telnet/AMQP/MQTT — the
            # protocol focus behind Figure 5's GreyNoise gap.
            service_focus = {
                service.name: service.focus_protocols
                for service in SCANNING_SERVICES
            }
            scan_weights = [
                4.0 if str(protocol) in service_focus.get(source.service_name, ())
                else 1.0
                for source in scan_pool
            ]
            scan_picker = (
                stream.weighted_picker(scan_pool, scan_weights)
                if scan_pool else None
            )
            mix = MALICIOUS_TYPE_MIX.get(protocol)
            intent_picker = (
                stream.weighted_picker(*zip(*mix)) if mix else None
            )

            for day in range(self.config.days):
                sessions = plan.setdefault((name, day), [])
                # scanning services: recurring, uniform per-day rate
                for _ in range(per_day_scan[day]):
                    if scan_picker is None:
                        break
                    source = scan_picker.pick()
                    intent = (
                        AttackType.DISCOVERY
                        if stream.bernoulli(0.3)
                        else AttackType.SCANNING
                    )
                    sessions.append(PlannedSession(protocol, source, intent))
                # unknown one-shot scanners
                for _ in range(per_day_unknown[day]):
                    if unknown_cursor >= len(unknown_pool):
                        break
                    source = unknown_pool[unknown_cursor]
                    unknown_cursor += 1
                    sessions.append(
                        PlannedSession(protocol, source, AttackType.SCANNING)
                    )
                # malicious traffic (trend-weighted) plus the DoS spikes
                for _ in range(per_day_mal[day]):
                    source = pick_malicious()
                    if source is None:
                        break
                    if source.tor_exit and protocol == _P.HTTP:
                        intent = AttackType.WEB_SCRAPING
                    elif intent_picker is not None:
                        intent = intent_picker.pick()
                    else:
                        intent = AttackType.SCANNING
                    sessions.append(PlannedSession(protocol, source, intent))
                for _ in range(per_day_spike[day]):
                    source = pick_malicious()
                    if source is None:
                        break
                    intent = stream.choice(list(spike_types))
                    sessions.append(PlannedSession(protocol, source, intent))

    def _plan_multistage(
        self,
        sources: Dict[str, Dict[str, List[SourceInfo]]],
        budgets: Dict[Tuple[str, ProtocolId], int],
        plan: Dict[Tuple[str, int], List[PlannedSession]],
    ) -> List[SourceInfo]:
        """Plan the multistage actors (one source, several protocols).

        Whether a sequence actually *lands* on >= 2 protocols is decided
        post-merge from the event log (a stage can miss when the target
        service is down under DoS), so planning only returns the actors.
        """
        stream = self._stream.child("multistage")
        n_actors = self._scaled(PAPER_MULTISTAGE_ATTACKS)
        sequences, weights = zip(*MULTISTAGE_SEQUENCES)
        stage_intents = {
            0: (AttackType.BRUTE_FORCE, AttackType.SCANNING),
            1: (AttackType.EXPLOIT, AttackType.MALWARE_DROP,
                AttackType.DATA_POISONING),
            2: (AttackType.DATA_POISONING, AttackType.DOS_FLOOD),
        }
        actors: List[SourceInfo] = []
        for index in range(n_actors):
            address = self._allocator.allocate()
            info = self.registry.register(
                SourceInfo(
                    address=address,
                    traffic_class=TrafficClass.MALICIOUS,
                    actor=f"multistage-{index}",
                    visits_honeypots=True,
                    visits_telescope=stream.bernoulli(0.5),
                )
            )
            actors.append(info)
            sequence = stream.choices(list(sequences), list(weights), k=1)[0]
            # Stages are days apart (the paper saw rescans "three days
            # before the attack"), so observed order equals intent order.
            day = stream.randint(
                0, max(0, self.config.days - 3 * len(sequence) - 1)
            )
            for stage, protocol in enumerate(sequence):
                candidates = self.deployment.emulating(protocol)
                if not candidates:
                    continue
                honeypot = stream.choice(candidates)
                intents = stage_intents.get(stage, stage_intents[2])
                intent = stream.choice(list(intents))
                if intent == AttackType.MALWARE_DROP and protocol not in (
                    _P.TELNET, _P.SSH, _P.FTP, _P.SMB, _P.HTTP,
                ):
                    intent = AttackType.DATA_POISONING
                plan.setdefault((honeypot.name, day), []).append(
                    PlannedSession(protocol, info, intent)
                )
                key = (honeypot.name, protocol)
                if key in budgets and budgets[key] > 0:
                    budgets[key] -= 1
                day += stream.randint(1, 3)
        return actors

    # -- execution ---------------------------------------------------------

    @staticmethod
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

    @staticmethod
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

    @staticmethod
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

    def _execute(
        self,
        plan: Dict[Tuple[str, int], List[PlannedSession]],
        multistage_actors: List[SourceInfo],
        result: ScheduleResult,
        journal: Optional[TaskJournal] = None,
        deadline: Optional[TaskDeadline] = None,
    ) -> None:
        """Run every (honeypot, day) task and merge in canonical order."""
        ordered: List[Tuple[LabHoneypot, int]] = []
        for honeypot in self.deployment.honeypots:
            days = sorted(
                day for (name, day) in plan if name == honeypot.name
            )
            ordered.extend((honeypot, day) for day in days)
        refs = [
            TaskRef("attacks", honeypot.name, day)
            for honeypot, day in ordered
        ]
        outcomes = run_tasks(
            TaskPlan(
                run=_execute_attack_task,
                payloads=[
                    (honeypot.name, day, plan[(honeypot.name, day)])
                    for honeypot, day in ordered
                ],
                context=self._worker_state(),
            ),
            self.config.workers,
            refs=refs, retries=self.config.retries, journal=journal,
            deadline=deadline,
            executor=self.config.executor,
            stats=self.executor_stats,
        )
        self.task_timings = [outcome.timing for outcome in outcomes]

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
        for info in multistage_actors:
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


def _payload_runs(payloads: List[bytes]):
    """Run-length group a payload list into ``(payload, count)`` pairs.

    Flood and reflection builders emit literal repeats — usually the
    *same* bytes object tens of times — so the identity check
    short-circuits the common case and equality catches
    distinct-but-equal packets (the S7 job flood).  The drivers below
    inline this grouping (the generator frame showed up in profiles);
    the function stays as the canonical, testable definition.
    """
    index, total = 0, len(payloads)
    while index < total:
        item = payloads[index]
        end = index + 1
        while end < total and (payloads[end] is item or payloads[end] == item):
            end += 1
        yield item, end - index
        index = end


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
    index, total = 0, len(payloads)
    while index < total:
        item = payloads[index]
        end = index + 1
        while end < total and (payloads[end] is item or payloads[end] == item):
            end += 1
        count = end - index
        index = end
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
    scalar draw for the flow's ``first + k``-th attempt); the surviving
    datagrams are then handled in order as one
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
    if not lossy:
        index, total = 0, len(payloads)
        while index < total:
            item = payloads[index]
            end = index + 1
            while end < total and (
                payloads[end] is item or payloads[end] == item
            ):
                end += 1
            count = end - index
            index = end
            if count == 1:
                reply = handle(item, open_session(peer=src))
                append((item, reply.data if reply.data else b""))
                nbytes += len(item)
            else:
                replies = server.handle_repeat_datagrams(
                    item, count, peer=src
                )
                for reply in replies:
                    append((item, reply.data if reply.data else b""))
                nbytes += len(item) * len(replies)
        return nbytes
    flow = (src, port, "udp")
    rate = loss_model.rate
    seed, name = loss_model.seed, loss_model.name
    for item, count in _payload_runs(payloads):
        first = attempts.get(flow, 0)
        attempts[flow] = first + count
        nbytes += len(item) * count
        if count == 1:
            lost = keyed_uniform(
                seed, name, src, dst, port, "udp", day, first
            ) < rate
            if lost:
                exchanges.append((item, b""))
            else:
                reply = handle(item, open_session(peer=src))
                exchanges.append((item, reply.data if reply.data else b""))
            continue
        verdicts = (
            keyed_uniform_array(
                seed, name, count, src, dst, port, "udp", day, start=first
            ) < rate
        ).tolist()
        survivors = count - sum(verdicts)
        replies = iter(
            server.handle_repeat_datagrams(item, survivors, peer=src)
            if survivors
            else ()
        )
        for lost in verdicts:
            if lost:
                exchanges.append((item, b""))
            else:
                reply = next(replies)
                exchanges.append((item, reply.data if reply.data else b""))
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
    base_state = AttackScheduler._int_state(services)
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
            AttackScheduler._reset_services(services)
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
            if lossy and AttackScheduler._task_lost(
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
