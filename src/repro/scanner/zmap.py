"""The scan engine: ZMap-style sweep plus ZGrab-style banner grabs.

The study's pipeline is two-stage, and so is ours:

1. **Reachability sweep** (the per-shard workers) — a stateless SYN/UDP
   probe per (address, port) establishing which endpoints answer.  In the
   simulation the candidate set is the fabric's attached hosts; this is
   semantically the full IPv4 sweep, since unattached addresses cannot
   answer and contribute nothing but time.
2. **Application grab** — for responding TCP endpoints, connect, record
   the banner, then send the protocol's first probe and its optional
   follow-up (:mod:`repro.scanner.probes`) and record the replies (ZGrab).  UDP endpoints get their reply
   in stage 1 already, since UDP scanning *is* application probing.

Campaigns shard like ZMap does: :meth:`InternetScanner.run_campaign`
partitions the candidate addresses with a
:class:`~repro.scanner.shard.ShardPlanner`, sweeps the ``K`` shards
concurrently (each in its own ZMap-style pseudo-random probe order drawn
from a key-derived stream), and merges the results in canonical
``(address, port, protocol)`` order.  Because probe loss is keyed per flow in the
fabric and shard assignment is a pure address function, the merged
database is byte-identical for every ``K`` — the property
``tests/test_sharding.py`` pins down against the strictly-serial walk
kept in ``tests/oracles/serial_scan.py``.

Blocklists are enforced before any probe leaves the scanner, mirroring the
paper's ethics setup.  The scan date window (Appendix Table 9: March 1-5
2021) is modelled with per-protocol timestamps so downstream records carry
realistic times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.tasks import (
    EXECUTORS,
    ExecutorStats,
    TaskDeadline,
    TaskJournal,
    TaskPlan,
    run_tasks,
)
from repro.internet.fabric import SimulatedInternet
from repro.net.compat import DATACLASS_KW_ONLY
from repro.net.errors import ConfigError
from repro.net.ipv4 import ip_to_int
from repro.net.prng import RandomStream
from repro.protocols.base import (
    DEFAULT_PORTS,
    ProtocolId,
    TransportKind,
    transport_of,
)
from repro.scanner.blocklist import Blocklist, zmap_default_blocklist
from repro.scanner.probes import (
    tcp_followup_payload,
    tcp_probe_payload,
    udp_probe_payload,
)
from repro.scanner.records import ScanDatabase
from repro.scanner.shard import ShardPlanner, ShardTiming

__all__ = [
    "ScanConfig",
    "InternetScanner",
    "SCAN_START_DAY",
    "scan_start_day",
]

#: Appendix Table 9 — scan start day (offset within the scan week) per
#: protocol; 1 March 2021 is day 0.  Protocols without an entry (the §6
#: extension protocols TR-069, DDS and OPC UA) default to day 0 via
#: :func:`scan_start_day`.
SCAN_START_DAY: Dict[ProtocolId, int] = {
    ProtocolId.COAP: 0,
    ProtocolId.UPNP: 1,
    ProtocolId.TELNET: 1,
    ProtocolId.MQTT: 3,
    ProtocolId.AMQP: 3,
    ProtocolId.XMPP: 4,
}

_SECONDS_PER_DAY = 86_400


def scan_start_day(protocol: ProtocolId) -> int:
    """Scan start day for a protocol; extension protocols default to day 0."""
    return SCAN_START_DAY.get(protocol, 0)


@dataclass(**DATACLASS_KW_ONLY)
class ScanConfig:
    """Scanner behaviour (keyword-only on Python 3.10+).

    ``seed=None`` is the seed-inheritance sentinel shared by every
    sub-config: the study config stamps its master seed over ``None``
    before the scanner is built, so a standalone ``ScanConfig()`` falls
    back to :data:`~repro.net.prng.DEFAULT_SEED` while a study-owned one
    always follows the study seed.

    ``shards``/``shard_strategy`` tune wall-clock only — the scan output
    is byte-identical for every value, which is why both fields are
    excluded from comparison (and therefore from the engine's phase-cache
    fingerprint: a cached serial scan satisfies a sharded request).
    """

    scanner_address: str = "130.225.0.99"  # the university scan host
    protocols: Tuple[ProtocolId, ...] = (
        ProtocolId.TELNET,
        ProtocolId.MQTT,
        ProtocolId.COAP,
        ProtocolId.AMQP,
        ProtocolId.XMPP,
        ProtocolId.UPNP,
    )
    #: Retries per UDP probe (UDP loss is otherwise unrecoverable).
    udp_retries: int = 1
    #: ``None`` inherits the master study seed (see class docstring).
    seed: Optional[int] = None
    #: Concurrent address shards per protocol sweep (1 = serial).
    shards: int = field(default=1, compare=False)
    #: ``"hash"`` or ``"block"`` — see :class:`~repro.scanner.shard.ShardPlanner`.
    shard_strategy: str = field(default="hash", compare=False)
    #: Supervised re-executions per shard task on a transient fault.
    #: Robustness-only (shard tasks are pure, so a retry is byte-identical)
    #: and therefore excluded from comparison like ``shards``.
    retries: int = field(default=0, compare=False)
    #: Task executor for the per-(protocol, shard) batch (``None``
    #: inherits the study-level choice; see
    #: :func:`~repro.core.tasks.resolve_executor`).  All executors are
    #: byte-identical, so the knob is excluded from equality/fingerprints.
    executor: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`~repro.net.errors.ConfigError` on invalid knobs."""
        if self.udp_retries < 0:
            raise ConfigError(
                f"udp_retries must be >= 0, got {self.udp_retries}"
            )
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.protocols:
            raise ConfigError("protocols must name at least one protocol")
        if self.executor is not None and self.executor not in EXECUTORS:
            raise ConfigError(
                f"executor must be one of {', '.join(EXECUTORS)}; "
                f"got {self.executor!r}"
            )
        # Delegates shard knob validation so CLI and planner agree.
        ShardPlanner(self.shards, self.shard_strategy)


class InternetScanner:
    """Scans a :class:`SimulatedInternet` for the six study protocols."""

    def __init__(
        self,
        internet: SimulatedInternet,
        config: Optional[ScanConfig] = None,
        blocklist: Optional[Blocklist] = None,
        host_filter=None,
    ) -> None:
        self.internet = internet
        self.config = config or ScanConfig()
        self.blocklist = blocklist or zmap_default_blocklist()
        #: Optional predicate(address) -> bool narrowing the sweep; the
        #: open-dataset providers use it to model partial coverage.
        self.host_filter = host_filter
        self._source = ip_to_int(self.config.scanner_address)
        self._stream = RandomStream(self.config.seed, "scanner")
        #: probes actually emitted, for rate/ethics accounting.
        self.probes_sent = 0
        #: Per-(protocol, shard) wall-time rows from the last campaign.
        self.shard_timings: List[ShardTiming] = []
        #: Executor kind / per-chunk timings from the last campaign.
        self.executor_stats = ExecutorStats()

    # -- campaign entry point ------------------------------------------------

    def run_campaign(
        self,
        journal: Optional[TaskJournal] = None,
        deadline: Optional[TaskDeadline] = None,
    ) -> ScanDatabase:
        """Sweep + grab for every configured protocol; returns the database.

        This is the sharded pipeline: the blocklist/host-filter admission
        decision is made once per address per campaign, each protocol's
        admitted addresses are partitioned into ``config.shards`` shards
        scanned concurrently, and the shard outputs are merged in
        canonical ``(address, port, protocol)`` order.  Output is byte-identical
        for every shard count and strategy.

        Each (protocol, shard) unit runs as a supervised task: a failure
        surfaces as :class:`~repro.net.errors.TaskFailure` naming the
        shard, transient faults retry up to ``config.retries`` times, and
        an optional ``journal`` records completed shards so an interrupted
        campaign can be resumed with byte-identical output.  An optional
        ``deadline`` arms per-shard wall-time supervision.
        """
        allowed = self._allowed_addresses()
        sweeps = self.sweep(
            {protocol: allowed for protocol in self.config.protocols},
            journal=journal,
            deadline=deadline,
        )
        rows = [row for swept in sweeps.values() for row in swept]
        # Canonical merge order across the whole campaign, so every shard
        # count produces a byte-identical database.
        rows.sort(key=ScanDatabase.canonical_key)
        database = ScanDatabase()
        database.append_batch(rows)
        return database

    def sweep(
        self,
        admitted: Dict[ProtocolId, Sequence[int]],
        journal: Optional[TaskJournal] = None,
        deadline: Optional[TaskDeadline] = None,
    ) -> Dict[ProtocolId, List[tuple]]:
        """Sweep + grab each protocol over its own admitted addresses.

        ``admitted`` maps protocol → sorted addresses that already passed
        admission; the scanner applies no blocklist or host filter here.
        Returns each protocol's rows in shard order (not canonical order):
        :meth:`run_campaign` sorts the whole campaign, the open-dataset
        providers sort per protocol.  Tasks, journal entries and probe
        order are those of :meth:`run_campaign` — a protocol's shard
        shuffle is keyed on (seed, protocol, shard), not on its address
        list or on the other protocols swept beside it.
        """
        planner = ShardPlanner(self.config.shards, self.config.shard_strategy)
        self.shard_timings = []
        # One merged batch across every (protocol, shard) unit — not one
        # batch per protocol — so the process executor pays its worker
        # bootstrap (pickling the world into each worker) once per
        # campaign instead of once per protocol, and the pool can overlap
        # a slow protocol's tail with the next protocol's shards.
        # Protocols handed the same address list share one partition.
        partitions: Dict[int, List[List[int]]] = {}
        tasks: List[Tuple[ProtocolId, int]] = []
        payloads = []
        refs = []
        for protocol, addresses in admitted.items():
            shards = partitions.get(id(addresses))
            if shards is None:
                shards = planner.partition(addresses)
                partitions[id(addresses)] = shards
            protocol_refs = planner.refs(str(protocol))
            for index, shard in enumerate(shards):
                tasks.append((protocol, index))
                payloads.append((protocol, index, tuple(shard)))
                refs.append(protocol_refs[index])
        plan = TaskPlan(
            run=_scan_worker_run,
            payloads=payloads,
            context=(self.internet, self.config),
            setup=_scan_worker_setup,
        )
        outcomes = run_tasks(
            plan,
            planner.shards,
            refs=refs,
            retries=self.config.retries,
            journal=journal,
            deadline=deadline,
            executor=self.config.executor,
            stats=self.executor_stats,
        )

        sweeps: Dict[ProtocolId, List[tuple]] = {
            protocol: [] for protocol in admitted
        }
        for (protocol, index), (shard_rows, probes, seconds) in zip(
            tasks, outcomes
        ):
            sweeps[protocol].extend(shard_rows)
            self.probes_sent += probes
            self.shard_timings.append(
                ShardTiming(
                    protocol=str(protocol),
                    shard=index,
                    seconds=seconds,
                    records=len(shard_rows),
                    probes=probes,
                )
            )
        return sweeps

    # -- sharded pipeline ----------------------------------------------------

    def _allowed_addresses(self) -> List[int]:
        """Campaign-admitted addresses, sorted — blocklist and host filter
        evaluated once per address instead of once per (target, protocol)."""
        blocks = self.blocklist.blocks
        host_filter = self.host_filter
        return sorted(
            host.address
            for host in self.internet.hosts()
            if (host_filter is None or host_filter(host.address))
            and not blocks(host.address)
        )

    def _shard_targets(
        self, protocol: ProtocolId, shard: int, addresses: Sequence[int]
    ) -> List[Tuple[int, int]]:
        """This shard's (address, port) probe list in ZMap-style
        pseudo-random order, drawn from the shard's key-derived stream."""
        ports = DEFAULT_PORTS[protocol]
        targets = [
            (address, port) for address in addresses for port in ports
        ]
        # ZMap permutes the address space so probes spread over the
        # network; the derived stream makes the permutation a pure
        # function of (seed, protocol, shard) — no draw-order coupling
        # between shards, so results cannot depend on worker scheduling.
        self._stream.derive(str(protocol), shard).shuffle(targets)
        return targets

    def _scan_tcp_shard(
        self, protocol: ProtocolId, shard: int, addresses: Sequence[int]
    ) -> Tuple[List[tuple], int]:
        """Sweep + grab one TCP shard; returns (rows, probes sent)."""
        timestamp = scan_start_day(protocol) * float(_SECONDS_PER_DAY)
        first_payload = tcp_probe_payload(protocol)
        connect = self.internet.try_tcp_connect
        source = self._source
        transport = TransportKind.TCP
        rows: List[tuple] = []
        probes = 0
        for address, port in self._shard_targets(protocol, shard, addresses):
            probes += 1
            connection = connect(source, address, port)
            if connection is None:
                continue
            response = b""
            if first_payload is not None and not connection.closed:
                response = connection.send(first_payload)
                followup = tcp_followup_payload(protocol, response)
                if followup is not None and not connection.closed:
                    response += connection.send(followup)
            rows.append(
                (
                    address,
                    port,
                    protocol,
                    transport,
                    connection.banner,
                    response,
                    timestamp,
                    "zmap",
                )
            )
        return rows, probes

    def _scan_udp_shard(
        self, protocol: ProtocolId, shard: int, addresses: Sequence[int]
    ) -> Tuple[List[tuple], int]:
        """Probe one UDP shard with bounded retries; (rows, probes sent)."""
        timestamp = scan_start_day(protocol) * float(_SECONDS_PER_DAY)
        payload = udp_probe_payload(protocol)
        attempts = 1 + max(0, self.config.udp_retries)
        query = self.internet.udp_query
        source = self._source
        transport = TransportKind.UDP
        rows: List[tuple] = []
        probes = 0
        for address, port in self._shard_targets(protocol, shard, addresses):
            response: Optional[bytes] = None
            for _ in range(attempts):
                probes += 1
                response = query(source, address, port, payload)
                if response is not None:
                    break
            if response is None:
                continue
            rows.append(
                (
                    address,
                    port,
                    protocol,
                    transport,
                    b"",
                    response,
                    timestamp,
                    "zmap",
                )
            )
        return rows, probes


# -- the campaign's task plan (module-level so it pickles by reference) -----

def _scan_worker_setup(context) -> "InternetScanner":
    """The scanner every shard task runs against, on either executor rung.

    Admission (blocklist + host filter) already happened in the campaign —
    shard payloads carry only admitted addresses — so the task scanner
    needs neither; probe order and loss verdicts are pure functions of
    (seed, protocol, shard) and the keyed flow, so a pristine world copy
    in a pool worker produces exactly the rows the live world does.
    Shard flows are disjoint across tasks (addresses partition within a
    protocol, ports differ across protocols), so per-worker world copies
    cannot interact.
    """
    internet, config = context
    return InternetScanner(internet, config)


def _scan_worker_run(
    scanner: "InternetScanner", payload
) -> Tuple[List[tuple], int, float]:
    """Run one (protocol, shard) unit against the task scanner."""
    protocol, shard, addresses = payload
    started = time.perf_counter()
    worker = (
        scanner._scan_tcp_shard
        if transport_of(protocol) == TransportKind.TCP
        else scanner._scan_udp_shard
    )
    rows, probes = worker(protocol, shard, addresses)
    return rows, probes, time.perf_counter() - started
