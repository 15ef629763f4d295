"""The /8 network telescope — Table 8's data source.

The UCSD telescope watches a dark /8 (1/256th of IPv4); it sees the
Internet's unsolicited "background radiation": bot scans, backscatter, and
scanning services sweeping the whole space.  Our generator reproduces the
April 2021 capture for the six IoT protocols:

* the same actor population that attacks the honeypots (the registry's
  ``visits_telescope`` sources) emits here too — this shared population is
  what makes the §5.3 intersection analysis possible;
* per-protocol *bulk background* sources top the unique-IP counts up to the
  Table 8 shape (Telnet's 85.6 M unique sources dwarf everything else);
* packet volumes are fitted to Table 8's daily averages.

Scaling note (documented in EXPERIMENTS.md): source counts use two tiers —
Telnet at 1:8192 and the rest at 1:64 — because Table 8 spans four orders
of magnitude; packet counts use a single 1:16384 scale so the inter-protocol
volume ratios stay exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.attacks.actors import ActorRegistry, SourceInfo
from repro.core.scaling import scale_count
from repro.core.tasks import (
    EXECUTORS,
    ExecutorStats,
    TaskDeadline,
    TaskJournal,
    TaskPlan,
    TaskRef,
    TaskTiming,
    paused_gc,
    resolve_executor,
    run_tasks,
)
from repro.core.taxonomy import TrafficClass
from repro.net.asn import AsnRegistry
from repro.net.errors import AddressError, ConfigError
from repro.net.compat import DATACLASS_KW_ONLY
from repro.net.geo import GeoRegistry
from repro.net.ipv4 import AddressAllocator, CidrBlock
from repro.net.packet import TransportProtocol
from repro.net.prng import RandomStream
from repro.protocols.base import DEFAULT_PORTS, ProtocolId, TransportKind, transport_of
from repro.telescope.flowtuple import FlowTupleWriter
from repro.telescope.rsdos import BackscatterGenerator, SpoofedDosAttack

__all__ = [
    "PAPER_TELESCOPE",
    "TelescopeConfig",
    "TelescopeCapture",
    "NetworkTelescope",
]

#: Table 8: (daily average packet count, unique IPs, scanning-service IPs).
PAPER_TELESCOPE: Dict[ProtocolId, Tuple[int, int, int]] = {
    ProtocolId.TELNET: (2_554_585_920, 85_615_200, 4_142),
    ProtocolId.UPNP: (131_794_560, 18_633, 2_279),
    ProtocolId.COAP: (68_353_920, 2_342, 627),
    ProtocolId.MQTT: (17_072_640, 5_572, 1_248),
    ProtocolId.AMQP: (13_907_520, 7_132, 2_256),
    ProtocolId.XMPP: (6_429_600, 4_255, 1_973),
}


@dataclass(**DATACLASS_KW_ONLY)
class TelescopeConfig:
    """Telescope generation knobs."""

    #: ``None`` inherits the master study seed.
    seed: Optional[int] = None
    days: int = 30
    dark_prefix: str = "44.0.0.0/8"
    #: Source-count scale for Telnet (its 85.6 M unique IPs need a much
    #: harsher scale than the small protocols).
    telnet_source_scale: int = 8192
    #: Source-count scale for the other five protocols.
    source_scale: int = 64
    #: Packet-count scale (uniform, so volume ratios are preserved exactly).
    packet_scale: int = 16_384
    #: Fraction of flows flagged as spoofed / emitted by Masscan.
    spoofed_fraction: float = 0.03
    masscan_fraction: float = 0.06
    #: Randomly-spoofed DoS attacks whose backscatter the telescope sees
    #: per day (the RSDoS metadata product).
    rsdos_attacks_per_day: int = 3
    #: Concurrent (protocol, day) emission workers.  Output is
    #: byte-identical for every value, so the field is excluded from
    #: equality/fingerprints (a deployment knob, not an experiment one).
    workers: int = field(default=1, compare=False)
    #: Supervised re-executions per (protocol, day) task on a transient
    #: fault.  Robustness-only (tasks are pure, so a retry is
    #: byte-identical) and excluded from equality like ``workers``.
    retries: int = field(default=0, compare=False)
    #: Task executor for the per-(protocol, day) batch (``None`` inherits
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
        if self.days < 1:
            raise ConfigError("days must be >= 1")
        try:
            CidrBlock.parse(self.dark_prefix)
        except AddressError as error:
            raise ConfigError(f"dark_prefix: {error}") from None
        if min(self.telnet_source_scale, self.source_scale, self.packet_scale) < 1:
            raise ConfigError("telescope scales must be >= 1")
        if not 0.0 <= self.spoofed_fraction <= 1.0:
            raise ConfigError("spoofed_fraction must be in [0, 1]")
        if not 0.0 <= self.masscan_fraction <= 1.0:
            raise ConfigError("masscan_fraction must be in [0, 1]")
        if self.rsdos_attacks_per_day < 0:
            raise ConfigError("rsdos_attacks_per_day must be >= 0")
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
class TelescopeCapture:
    """The month of captured FlowTuples plus per-protocol source ledgers."""

    writer: FlowTupleWriter
    sources_by_protocol: Dict[ProtocolId, Set[int]]
    scanning_sources_by_protocol: Dict[ProtocolId, Set[int]]
    packets_by_protocol: Dict[ProtocolId, int]
    config: TelescopeConfig
    #: Ground truth of the spoofed DoS attacks whose backscatter landed
    #: here (for scoring the RSDoS detector; the detector never reads it).
    rsdos_truth: List[SpoofedDosAttack] = field(default_factory=list)

    def unique_sources(self, protocol: Optional[ProtocolId] = None) -> Set[int]:
        """Distinct sources, optionally per protocol."""
        if protocol is not None:
            return set(self.sources_by_protocol.get(protocol, set()))
        result: Set[int] = set()
        for sources in self.sources_by_protocol.values():
            result.update(sources)
        return result

    def daily_average(self, protocol: ProtocolId) -> float:
        """Average packets/day for one protocol (scaled units)."""
        return self.packets_by_protocol.get(protocol, 0) / max(1, self.config.days)

    def daily_average_rescaled(self, protocol: ProtocolId) -> float:
        """Average packets/day mapped back to paper units."""
        return self.daily_average(protocol) * self.config.packet_scale

    def suspicious_sources(self, protocol: ProtocolId) -> Set[int]:
        """Sources not attributable to scanning services (Table 8's last
        column)."""
        return self.sources_by_protocol.get(protocol, set()) - (
            self.scanning_sources_by_protocol.get(protocol, set())
        )


def _telescope_worker_setup(config: TelescopeConfig) -> "NetworkTelescope":
    """The telescope every emission task runs against, on either rung.

    Emission tasks touch only config-derived state — streams are pure
    functions of the seed, the dark prefix parses from the config — so the
    tasks get a registry-less telescope rather than the full actor
    population.
    """
    return NetworkTelescope(None, None, None, config)


def _telescope_worker_run(shell: "NetworkTelescope", payload):
    """Run one (unit, day) emission task against the task telescope."""
    unit, day, entries = payload
    if unit == "rsdos":
        return shell._emit_rsdos_day(day, entries)
    return shell._emit_day(unit, day, entries)


class NetworkTelescope:
    """Generates the month of darknet traffic from the actor population."""

    def __init__(
        self,
        registry: ActorRegistry,
        geo: GeoRegistry,
        asn: AsnRegistry,
        config: Optional[TelescopeConfig] = None,
    ) -> None:
        self.registry = registry
        self.geo = geo
        self.asn = asn
        self.config = config or TelescopeConfig()
        self._stream = RandomStream(self.config.seed, "telescope")
        self._dark = CidrBlock.parse(self.config.dark_prefix)
        self._allocator = AddressAllocator(
            [CidrBlock.parse("24.0.0.0/6"), CidrBlock.parse("150.0.0.0/6")],
            self._stream.child("background"),
        )
        #: Per-(protocol, day) wall times of the last :meth:`capture_month`.
        self.task_timings: List[TaskTiming] = []
        #: Executor kind and per-chunk timings of the last capture.
        self.executor_stats = ExecutorStats()
        self._scanners: Optional[List[SourceInfo]] = None

    # -- generation ------------------------------------------------------

    def capture_month(
        self,
        journal: Optional[TaskJournal] = None,
        deadline: Optional[TaskDeadline] = None,
    ) -> TelescopeCapture:
        """Produce the full scaled April capture.

        Runs as plan / execute / merge: source population, activity plans
        and RSDoS attack specs are drawn serially; record emission shards
        into per-(protocol, day) tasks on ``config.workers`` processes, each
        drawing from ``stream.derive(protocol, day)`` and returning a small
        :class:`FlowTupleWriter`; the merge appends the task writers
        day-major (within a day, protocol order, then RSDoS backscatter)
        — byte-identical for every worker count.

        Tasks run supervised: failures surface as
        :class:`~repro.net.errors.TaskFailure` naming the (protocol, day)
        task, transient faults retry ``config.retries`` times, and an
        optional ``journal`` lets an interrupted capture resume with
        byte-identical output.  An optional ``deadline`` arms per-task
        wall-time supervision.
        """
        writer = FlowTupleWriter()
        sources_by_protocol: Dict[ProtocolId, Set[int]] = {}
        scanning_by_protocol: Dict[ProtocolId, Set[int]] = {}

        malicious_by_protocol = self._partition_registry()
        day_plans: Dict[Tuple[ProtocolId, int], List[_SourceDayPlan]] = {}
        for protocol in PAPER_TELESCOPE:
            stream = self._stream.child(f"proto.{protocol}")
            all_sources, scanning_set = self._build_protocol_sources(
                protocol, stream, malicious_by_protocol[protocol]
            )
            sources_by_protocol[protocol] = set(all_sources)
            scanning_by_protocol[protocol] = scanning_set
            self._plan_emission(protocol, all_sources, scanning_set, stream, day_plans)
        rsdos_by_day = self._plan_rsdos()

        # One (unit, day, entries) payload per task, day-major, so the
        # merged writer's insertion order is its per-day file order.  The
        # emission tasks need only config-derived state (streams are
        # re-derived from the seed), so each plan ships the config as the
        # context.
        payloads = [
            (unit, day, entries)
            for day in range(self.config.days)
            for unit, entries in (
                *((protocol, day_plans.get((protocol, day)))
                  for protocol in PAPER_TELESCOPE),
                ("rsdos", rsdos_by_day.get(day)),
            )
            if entries
        ]
        # A pool runs the month as one batch.  The serial rung runs it a
        # day at a time, so the merge holds one day's task tables besides
        # the capture's, not the month's.
        pooled = self.config.workers > 1 and resolve_executor(
            self.config.executor, workers=self.config.workers
        ) == "process"
        batches = [payloads] if pooled else [
            list(batch) for _, batch in groupby(payloads, key=itemgetter(1))
        ]
        # Every task's row count is known from its payload: sizing the
        # columns once leaves no discarded growth buffers behind.
        backscatter = BackscatterGenerator(
            self.config.dark_prefix, self.config.seed,
            packet_scale=self.config.packet_scale,
        )
        writer.reserve(sum(
            sum(map(backscatter.flow_count, entries)) if unit == "rsdos"
            else len(entries)
            for unit, _, entries in payloads
        ))
        self.task_timings = []
        packets_by_protocol: Dict[ProtocolId, int] = {
            protocol: 0 for protocol in PAPER_TELESCOPE
        }
        # The collector stays paused between the day batches too, as it
        # is within one (see ``paused_gc``).
        with paused_gc():
            for batch in batches:
                outcomes = run_tasks(
                    TaskPlan(
                        run=_telescope_worker_run, payloads=batch,
                        context=self.config, setup=_telescope_worker_setup,
                    ),
                    self.config.workers,
                    refs=[
                        TaskRef("telescope", str(unit), day)
                        for unit, day, _ in batch
                    ],
                    retries=self.config.retries, journal=journal,
                    deadline=deadline,
                    executor=self.config.executor,
                    stats=self.executor_stats,
                )
                for (unit, day, _), (part, packets, timing) in zip(
                    batch, outcomes
                ):
                    writer.extend_day(day, part)
                    self.task_timings.append(timing)
                    if unit != "rsdos":
                        packets_by_protocol[unit] += packets

        rsdos_truth = [
            attack
            for day in sorted(rsdos_by_day)
            for attack in rsdos_by_day[day]
        ]
        return TelescopeCapture(
            writer=writer,
            sources_by_protocol=sources_by_protocol,
            scanning_sources_by_protocol=scanning_by_protocol,
            packets_by_protocol=packets_by_protocol,
            config=self.config,
            rsdos_truth=rsdos_truth,
        )

    # -- population ---------------------------------------------------------

    def _partition_registry(self) -> Dict[ProtocolId, List[SourceInfo]]:
        """Assign telescope-visiting registry attackers to protocols.

        Every registry source flagged as telescope-visiting MUST appear in
        the capture (a bot scanning the Internet cannot miss a /8) —
        partition them across protocols proportionally to source counts,
        with Telnet absorbing the bulk (bots scan Telnet first).
        """
        registry_malicious = [
            info for info in self.registry
            if info.visits_telescope
            and info.traffic_class != TrafficClass.SCANNING_SERVICE
        ]
        partition_stream = self._stream.child("partition")
        protocol_list = list(PAPER_TELESCOPE)
        protocol_weights = [
            PAPER_TELESCOPE[protocol][1] for protocol in protocol_list
        ]
        malicious_by_protocol: Dict[ProtocolId, List[SourceInfo]] = {
            protocol: [] for protocol in protocol_list
        }
        for info in registry_malicious:
            protocol = partition_stream.choices(
                protocol_list, protocol_weights, k=1
            )[0]
            malicious_by_protocol[protocol].append(info)
        return malicious_by_protocol

    def _build_protocol_sources(
        self,
        protocol: ProtocolId,
        stream: RandomStream,
        malicious: List[SourceInfo],
    ) -> Tuple[List[int], Set[int]]:
        """One protocol's source population: (all sources, scanning set)."""
        _, unique_ips, scanning_ips = PAPER_TELESCOPE[protocol]
        # The scanning-service roster never changes during a capture (only
        # UNKNOWN background sources get registered below), so scan the
        # registry once instead of once per protocol; each protocol still
        # shuffles its own fresh copy, in the original registry order.
        if self._scanners is None:
            self._scanners = [
                info for info in self.registry
                if info.visits_telescope
                and info.traffic_class == TrafficClass.SCANNING_SERVICE
            ]
        registry_scanners = list(self._scanners)
        source_scale = (
            self.config.telnet_source_scale
            if protocol == ProtocolId.TELNET
            else self.config.source_scale
        )
        n_sources = max(2, scale_count(unique_ips, source_scale))
        # Scanning-service counts are small enough to share one scale.
        n_scanning = min(
            n_sources - 1,
            max(1, scale_count(scanning_ips, self.config.source_scale)),
        )

        # Scanning-service sources come from the shared registry first.
        scanning_sources: List[int] = []
        pool = registry_scanners
        stream.shuffle(pool)
        for info in pool[:n_scanning]:
            scanning_sources.append(info.address)
        while len(scanning_sources) < n_scanning:
            scanning_sources.append(self._allocator.allocate())

        # Suspicious sources: this protocol's registry attackers, all of
        # them, then bulk background (the unattributed radiation that
        # dominates the real telescope) up to the scaled unique count.
        suspicious: List[int] = [info.address for info in malicious]
        n_suspicious = max(len(suspicious), n_sources - n_scanning)
        while len(suspicious) < n_suspicious:
            background = self._allocator.allocate()
            suspicious.append(background)
            # Background radiation sources join the shared ledger as
            # unknowns, so intel lookups (Figure 6's telescope side)
            # see them with unknown-grade reputations.
            self.registry.register(SourceInfo(
                address=background,
                traffic_class=TrafficClass.UNKNOWN,
                actor="darknet-background",
                visits_telescope=True,
            ))

        return scanning_sources + suspicious, set(scanning_sources)

    # -- sharded emission -------------------------------------------------

    def _plan_emission(
        self,
        protocol: ProtocolId,
        sources: List[int],
        scanning_set: Set[int],
        stream: RandomStream,
        day_plans: Dict[Tuple[ProtocolId, int], List[tuple]],
    ) -> None:
        """Draw one protocol's per-source activity plan (no emission).

        Zipf-ish activity: a few heavy hitters, a long quiet tail.  The
        per-source decisions (share of the packet budget, recurring or
        bursty, which days) stay on the serial per-protocol stream; only
        the per-record field draws move to the per-(protocol, day) task
        streams.  Geo/ASN are looked up once per source here instead of
        once per record.
        """
        daily_avg = PAPER_TELESCOPE[protocol][0]
        total_packets = scale_count(
            daily_avg * self.config.days, self.config.packet_scale
        )
        weight_sum = sum(1.0 / (rank + 1) for rank in range(len(sources)))
        weight_sum = weight_sum or 1.0
        days = self.config.days
        rnd = stream.rng.random
        country_of = self.geo.country_of
        asn_of = self.asn.asn_of
        # One list per day, filed under (protocol, day) at the end: tens of
        # thousands of sources flow through here, so the activity draws are
        # raw uniforms (like the emission loop's) and the per-day buckets
        # are plain list indexing rather than keyed setdefaults.
        day_lists: List[List[tuple]] = [[] for _ in range(days)]
        for rank, source in enumerate(sources):
            share = max(1, int(total_packets / ((rank + 1) * weight_sum)))
            if source in scanning_set or rnd() < 0.3:
                active_days = range(0, days, 1 + int(rnd() * 3))
            else:
                wanted = min(days, 1 + int(rnd() * 4))
                chosen: Set[int] = set()
                while len(chosen) < wanted:
                    chosen.add(int(rnd() * days))
                active_days = sorted(chosen)
            per_day = max(1, share // max(1, len(active_days)))
            entry = (source, per_day, country_of(source), asn_of(source))
            for day in active_days:
                day_lists[day].append(entry)
        for day, entries in enumerate(day_lists):
            if entries:
                day_plans[(protocol, day)] = entries

    def _emit_day(
        self, protocol: ProtocolId, day: int, entries: List[tuple]
    ) -> Tuple[FlowTupleWriter, int, TaskTiming]:
        """Emit one (protocol, day) batch from its derived stream.

        One :meth:`~repro.net.prng.RandomStream.uniform_array` call draws
        all ``6 * n`` uniforms (row ``i`` consumes draws ``6i .. 6i+5``,
        bit-identical to ``6 * n`` sequential ``stream.random()`` calls),
        and the field arithmetic runs as whole-column expressions whose
        truncations match ``int()`` (every operand is non-negative).  The
        output is a writer built from those whole columns
        (:meth:`~repro.core.columns.ColumnTable.from_columns`).
        """
        start = time.perf_counter()
        stream = self._stream.derive("emit", str(protocol), day)
        n = len(entries)
        draws = stream.uniform_array(6 * n).reshape(n, 6)
        port = DEFAULT_PORTS[protocol][0]
        is_tcp = transport_of(protocol) != TransportKind.UDP
        transport = TransportProtocol.TCP if is_tcp else TransportProtocol.UDP
        dark_first = self._dark.first
        dark_span = self._dark.last - dark_first + 1
        day_base = day * 86_400
        sources, per_day, countries, asns = zip(*entries)
        per_day = np.array(per_day, dtype=np.int64)
        part = FlowTupleWriter.from_columns(dict(
            time=day_base + (draws[:, 0] * 86_400).astype(np.int64),
            src_ip=sources,
            dst_ip=dark_first + (draws[:, 1] * dark_span).astype(np.int64),
            src_port=1024 + (draws[:, 2] * 64_512).astype(np.int32),
            dst_port=np.full(n, port, dtype=np.int32),
            protocol=[transport] * n,
            ttl=32 + (draws[:, 3] * 224).astype(np.int32),
            tcp_flags=np.full(n, 0x02 if is_tcp else 0, dtype=np.int32),
            ip_len=np.full(n, 44 if is_tcp else 60, dtype=np.int32),
            packet_count=per_day,
            is_spoofed=draws[:, 4] < self.config.spoofed_fraction,
            is_masscan=draws[:, 5] < self.config.masscan_fraction,
            country=countries,
            asn=asns,
        ))
        packets = int(per_day.sum())
        timing = TaskTiming(
            plane="telescope", unit=str(protocol), day=day,
            seconds=time.perf_counter() - start, events=n,
        )
        return part, packets, timing

    def _plan_rsdos(self) -> Dict[int, List[SpoofedDosAttack]]:
        """Draw the month's spoofed-DoS attack specs, grouped by day."""
        stream = self._stream.child("rsdos")
        by_day: Dict[int, List[SpoofedDosAttack]] = {}
        for day in range(self.config.days):
            for _ in range(self.config.rsdos_attacks_per_day):
                attack = SpoofedDosAttack(
                    victim=self._allocator.allocate(),
                    victim_port=stream.choice([80, 443, 53, 22, 25565]),
                    day=day,
                    duration_seconds=stream.randint(120, 7_200),
                    packets_per_second=stream.randint(20_000, 400_000),
                )
                by_day.setdefault(day, []).append(attack)
        return by_day

    def _emit_rsdos_day(
        self, day: int, attacks: List[SpoofedDosAttack]
    ) -> Tuple[FlowTupleWriter, int, TaskTiming]:
        """Emit one day's backscatter from per-attack derived streams."""
        start = time.perf_counter()
        generator = BackscatterGenerator(
            self.config.dark_prefix, self.config.seed,
            packet_scale=self.config.packet_scale,
        )
        local = FlowTupleWriter()
        packets = 0
        for slot, attack in enumerate(attacks):
            packets += generator.emit(
                attack, local, stream=self._stream.derive("rsdos.emit", day, slot)
            )
        timing = TaskTiming(
            plane="telescope", unit="rsdos", day=day,
            seconds=time.perf_counter() - start, events=len(local),
        )
        return local, packets, timing
