"""The attack month's actor pools and session plan.

Planning is serial and makes every *decision*-shaped draw of the month
(:mod:`repro.attacks.schedule` then executes the plan).  It runs in two
steps:

1. *actor pools* — who attacks which honeypot and protocol: the infected
   misconfigured/Censys-IoT devices, the scanning services, the botnet,
   Tor-exit and one-shot sources, split per (honeypot, protocol) into
   :class:`ActorPool` rows;
2. *session plan* — per (honeypot, day) :class:`PlannedSession` lists:
   budget scaling, the daily trend and listing boosts, the DoS spikes,
   and every source/intent pick, drawn from the pools as data.

The multistage actors (one source, several protocols) are built and
planned in one pass, because their stream interleaves actor creation with
sequence draws.

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

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.attacks.actors import ActorRegistry, SourceInfo
from repro.attacks.scanning_services import SCANNING_SERVICES
from repro.core.scaling import apportion, scale_count
from repro.core.taxonomy import AttackType, TrafficClass
from repro.honeypots.base import HoneypotDeployment, LabHoneypot
from repro.internet.population import Population
from repro.net.ipv4 import AddressAllocator, CidrBlock
from repro.net.prng import RandomStream
from repro.net.rdns import ReverseDns
from repro.protocols.base import ProtocolId

if TYPE_CHECKING:
    from repro.attacks.schedule import AttackScheduleConfig

__all__ = [
    "PAPER_HONEYPOT_EVENTS",
    "PAPER_HONEYPOT_SOURCES",
    "MALICIOUS_TYPE_MIX",
    "MULTISTAGE_SEQUENCES",
    "ActorPool",
    "MonthPlan",
    "MonthPlanner",
    "PlannedSession",
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

#: Intents of the multistage stages (stage 3 and later reuse the last).
_STAGE_INTENTS = (
    (AttackType.BRUTE_FORCE, AttackType.SCANNING),
    (AttackType.EXPLOIT, AttackType.MALWARE_DROP, AttackType.DATA_POISONING),
    (AttackType.DATA_POISONING, AttackType.DOS_FLOOD),
)
#: Protocols a multistage stage can drop malware over.
_DROPPER_PROTOCOLS = (_P.TELNET, _P.SSH, _P.FTP, _P.SMB, _P.HTTP)
_SPIKE_INTENTS = [AttackType.DOS_FLOOD, AttackType.REFLECTION]

#: Risk-rating platforms concentrate on Telnet/AMQP/MQTT — the protocol
#: focus behind Figure 5's GreyNoise gap.
_SERVICE_FOCUS = {
    service.name: service.focus_protocols for service in SCANNING_SERVICES
}


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
class ActorPool:
    """Who attacks one honeypot, or one (honeypot, protocol) service."""

    scanning: List[SourceInfo]
    malicious: List[SourceInfo]
    unknown: List[SourceInfo]


@dataclass
class MonthPlan:
    """The month's session plan, ready to execute."""

    #: (honeypot, day) -> sessions in drive order.
    sessions: Dict[Tuple[str, int], List[PlannedSession]]
    #: Whether a multistage sequence *lands* on >= 2 protocols is decided
    #: post-merge from the event log (a stage can miss when the target
    #: service is down under DoS), so the plan only carries the actors.
    multistage: List[SourceInfo]


class MonthPlanner:
    """Builds the actor pools and the session plan of one month.

    Sources are registered into ``registry`` and their domains into
    ``rdns`` as they are built; call :meth:`plan` once per month.
    """

    def __init__(
        self,
        deployment: HoneypotDeployment,
        population: Optional[Population],
        config: "AttackScheduleConfig",
        stream: RandomStream,
        registry: ActorRegistry,
        rdns: ReverseDns,
    ) -> None:
        self.deployment = deployment
        self.population = population
        self.config = config
        self.registry = registry
        self.rdns = rdns
        self._stream = stream
        self._allocator = AddressAllocator(
            [CidrBlock.parse("2.0.0.0/7"), CidrBlock.parse("80.0.0.0/4"),
             CidrBlock.parse("176.0.0.0/5"), CidrBlock.parse("200.0.0.0/6")],
            stream.child("allocator"),
        )

    def plan(self) -> MonthPlan:
        """Build the pools, then draw every (honeypot, day) session list."""
        for honeypot in self.deployment.honeypots:
            for service in SCANNING_SERVICES:
                if service.listing_day is not None:
                    honeypot.listing_days[service.name] = service.listing_day
        sources = self._build_sources(self._build_infected())
        budgets = {
            key: self._scaled(count)
            for key, count in PAPER_HONEYPOT_EVENTS.items()
        }
        sessions: Dict[Tuple[str, int], List[PlannedSession]] = {}
        multistage = self._plan_multistage(budgets, sessions)
        for honeypot in self.deployment.honeypots:
            stream, pools = self._actor_pools(
                honeypot, sources[honeypot.name], budgets
            )
            self._plan_honeypot(honeypot, stream, pools, budgets, sessions)
        return MonthPlan(sessions, multistage)

    def _scaled(self, count: int) -> int:
        return scale_count(count, self.config.attack_scale)

    # -- actor pools ---------------------------------------------------------

    def _build_infected(self) -> List[SourceInfo]:
        """Sources that are misconfigured devices / Censys-IoT devices.

        Returns the honeypot-visiting infected sources (to be mixed into
        the malicious pools); telescope-only infected sources are
        registered directly with ``visits_telescope`` so the telescope
        layer emits from them.
        """
        if self.population is None:
            return []
        stream = self._stream.child("infected")
        internet = self.population.internet
        splits = (
            ("infected-device", PAPER_INFECTED_SPLIT, [
                internet.host_at(address)
                for address in sorted(
                    self.population.misconfigured_addresses()
                )
            ]),
            # Censys-IoT extension: IoT-typed hosts outside the misconfig set.
            ("infected-iot", PAPER_CENSYS_IOT_SPLIT, [
                host for host in self.population.hosts
                if not host.is_honeypot
                and host.misconfig.value == "none"
                and host.device_type != "Server"
            ]),
        )
        visiting: List[SourceInfo] = []
        for actor, split, hosts in splits:
            stream.shuffle(hosts)
            hp_only, tel_only, both = (self._scaled(n) for n in split)
            censys = actor == "infected-iot"
            for index, host in enumerate(hosts[: hp_only + tel_only + both]):
                info = SourceInfo(
                    address=host.address,
                    traffic_class=TrafficClass.MALICIOUS,
                    actor=actor,
                    infected_misconfigured=not censys,
                    censys_iot=censys,
                    censys_device_type=host.device_type if censys else "",
                    visits_honeypots=index < hp_only + both,
                    visits_telescope=index >= hp_only,
                )
                host.infected = True
                host.infected_by = "mirai"
                self.registry.register(info)
                if info.visits_honeypots:
                    visiting.append(info)
        return visiting

    def _build_sources(
        self, hp_infected: List[SourceInfo]
    ) -> Dict[str, ActorPool]:
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
        stream.shuffle(hp_infected)

        tor_budget = self._scaled(PAPER_TOR_EXITS)
        domain_budget = self._scaled(PAPER_REGISTERED_DOMAINS)
        webpage_budget = self._scaled(PAPER_DOMAINS_WITH_WEBPAGE)
        malicious_url_budget = self._scaled(PAPER_MALICIOUS_URLS)

        pools: Dict[str, ActorPool] = {}
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

            pools[honeypot.name] = ActorPool(
                scan_sources, mal_sources, unknown_sources
            )

        # §5.1.3 case study: two CoAP flood sources shared one DNS entry
        # pointing at an Apache default page — reflection infrastructure.
        hostage = pools.get("HosTaGe")
        if hostage is not None and len(hostage.malicious) >= 2:
            domain = "amplifier-pool.example-hosting.net"
            for info in hostage.malicious[:2]:
                self.rdns.register(
                    info.address, domain,
                    has_webpage=True, page_kind="apache-test",
                )
                info.rdns_domain = domain
                info.actor = "reflection-infra"
        return pools

    def _actor_pools(
        self,
        honeypot: LabHoneypot,
        sources: ActorPool,
        budgets: Dict[Tuple[str, ProtocolId], int],
    ) -> Tuple[RandomStream, Dict[ProtocolId, ActorPool]]:
        """Split one honeypot's sources into per-protocol pools.

        Malicious sources stick to one protocol (real bots are
        single-purpose; the multistage actors are the deliberate
        exception), so the shuffled malicious pool is partitioned
        proportionally to budgets; unknown one-shot scanners are spread
        the same way, and every protocol shares the honeypot's scanning
        services.  The shuffles open the honeypot's ``run.<name>`` stream,
        which is returned for the planner to keep drawing from.
        """
        name = honeypot.name
        stream = self._stream.child(f"run.{name}")
        protocols = [protocol for (hp, protocol) in budgets if hp == name]
        budget_sum = sum(budgets[(name, p)] for p in protocols) or 1
        unknown_pool = list(sources.unknown)
        stream.shuffle(unknown_pool)
        mal_pool = list(sources.malicious)
        stream.shuffle(mal_pool)
        # Tor-exit scrapers are HTTP actors by construction (§5.1.6) —
        # place them inside the pool slice that becomes the HTTP partition.
        if _P.HTTP in protocols:
            tor_sources = [info for info in mal_pool if info.tor_exit]
            if tor_sources:
                others = [info for info in mal_pool if not info.tor_exit]
                preceding_share = sum(
                    budgets[(name, p)]
                    for p in protocols[:protocols.index(_P.HTTP)]
                ) / budget_sum
                insert_at = min(
                    len(others), int(round(preceding_share * len(mal_pool)))
                )
                mal_pool = (
                    others[:insert_at] + tor_sources + others[insert_at:]
                )
        pools: Dict[ProtocolId, ActorPool] = {}
        mal_cursor = unknown_cursor = 0
        for index, protocol in enumerate(protocols):
            total = budgets[(name, protocol)]
            if index == len(protocols) - 1:
                malicious = mal_pool[mal_cursor:]
            else:
                share = total / budget_sum
                size = int(round(share * len(mal_pool)))
                malicious = mal_pool[mal_cursor : mal_cursor + size]
                mal_cursor += size
            # Unknown sources hit once each.
            n_unknown = min(
                len(unknown_pool) - unknown_cursor,
                int(round(len(unknown_pool) * total / budget_sum)),
            )
            unknown = unknown_pool[unknown_cursor : unknown_cursor + n_unknown]
            unknown_cursor += n_unknown
            pools[protocol] = ActorPool(sources.scanning, malicious, unknown)
        return stream, pools

    # -- session plan --------------------------------------------------------

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
        stream: RandomStream,
        pools: Dict[ProtocolId, ActorPool],
        budgets: Dict[Tuple[str, ProtocolId], int],
        sessions: Dict[Tuple[str, int], List[PlannedSession]],
    ) -> None:
        """Draw one honeypot's month of session picks from its pools.

        Every decision-shaped draw happens here, on the honeypot's serial
        stream; payload and timestamp draws happen in the per-(honeypot,
        day) execution streams.
        """
        name = honeypot.name
        days = self.config.days
        day_weights = self._day_weights(honeypot)
        for protocol, pool in pools.items():
            total = budgets[(name, protocol)]
            if total <= 0:
                continue
            n_scan = int(round(total * self.config.scanning_share))
            n_mal = max(0, total - n_scan - len(pool.unknown))

            # The Figure 8 DoS spikes are carved out of the malicious
            # budget, not added on top — totals stay Table 7-shaped.
            spike_budget = 0
            if protocol in (_P.UPNP, _P.COAP):
                spike_budget = int(n_mal * self.config.dos_spike_fraction)
                n_mal -= spike_budget
            per_day_spike = [0] * days
            for offset, spike_day in enumerate(DOS_SPIKE_DAYS):
                if spike_day < days:
                    per_day_spike[spike_day] = spike_budget // len(DOS_SPIKE_DAYS)
                    if offset == 0:
                        per_day_spike[spike_day] += spike_budget % len(
                            DOS_SPIKE_DAYS
                        )

            per_day_mal = self._allocate_days(n_mal, day_weights)
            per_day_scan = self._allocate_days(n_scan, [1.0] * days)
            per_day_unknown = self._allocate_days(
                len(pool.unknown), [1.0] * days
            )

            partition = pool.malicious
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

            scan_weights = [
                4.0 if str(protocol) in _SERVICE_FOCUS.get(source.service_name, ())
                else 1.0
                for source in pool.scanning
            ]
            scan_picker = (
                stream.weighted_picker(pool.scanning, scan_weights)
                if pool.scanning else None
            )
            mix = MALICIOUS_TYPE_MIX.get(protocol)
            intent_picker = (
                stream.weighted_picker(*zip(*mix)) if mix else None
            )
            unknown = iter(pool.unknown)

            for day in range(days):
                planned = sessions.setdefault((name, day), [])
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
                    planned.append(PlannedSession(protocol, source, intent))
                # unknown one-shot scanners
                for source in islice(unknown, per_day_unknown[day]):
                    planned.append(
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
                    planned.append(PlannedSession(protocol, source, intent))
                for _ in range(per_day_spike[day]):
                    source = pick_malicious()
                    if source is None:
                        break
                    intent = stream.choice(_SPIKE_INTENTS)
                    planned.append(PlannedSession(protocol, source, intent))

    def _plan_multistage(
        self,
        budgets: Dict[Tuple[str, ProtocolId], int],
        sessions: Dict[Tuple[str, int], List[PlannedSession]],
    ) -> List[SourceInfo]:
        """Build and plan the multistage actors (one source, several
        protocols); each landed stage comes out of its service's budget."""
        stream = self._stream.child("multistage")
        sequences, weights = (list(column) for column in zip(*MULTISTAGE_SEQUENCES))
        actors: List[SourceInfo] = []
        for index in range(self._scaled(PAPER_MULTISTAGE_ATTACKS)):
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
            sequence = stream.choices(sequences, weights, k=1)[0]
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
                intents = _STAGE_INTENTS[min(stage, len(_STAGE_INTENTS) - 1)]
                intent = stream.choice(intents)
                if (intent == AttackType.MALWARE_DROP
                        and protocol not in _DROPPER_PROTOCOLS):
                    intent = AttackType.DATA_POISONING
                sessions.setdefault((honeypot.name, day), []).append(
                    PlannedSession(protocol, info, intent)
                )
                key = (honeypot.name, protocol)
                if key in budgets and budgets[key] > 0:
                    budgets[key] -= 1
                day += stream.randint(1, 3)
        return actors
