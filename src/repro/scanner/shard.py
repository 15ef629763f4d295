"""Address-space sharding for the scan pipeline.

ZMap covers the IPv4 space in under an hour by being embarrassingly
parallel: the address space is permuted and carved up, and independent
senders sweep their slices concurrently.  :class:`ShardPlanner` is our
version of that carve-up — it deterministically assigns every candidate
address to one of ``K`` shards so :class:`~repro.scanner.zmap.InternetScanner`
can run the shards through :func:`~repro.core.tasks.run_tasks` (one
picklable :class:`~repro.core.tasks.TaskPlan` per campaign, run inline or
on worker processes under ``--executor process``) and merge the results
in canonical ``(address, port)`` order.

Two strategies:

* ``"hash"`` (default) — shard by :func:`~repro.net.prng.splitmix64` of the
  address, which balances load even when the population clusters inside a
  few /8s (ours does: the paper's Table 6 countries own a handful of
  blocks);
* ``"block"`` — shard by /8 block index, preserving prefix locality per
  shard (useful when per-shard results should map to contiguous space,
  e.g. for per-registry accounting).

Shard assignment is a pure function of ``(address, K, strategy)`` — no
RNG state, no insertion order — which is half of the byte-identical
guarantee; the other half is the keyed probe-loss model in
:mod:`repro.internet.fabric`.

:class:`ShardTiming` is the per-shard metrics row surfaced in
``StudyMetrics`` (and ``--metrics-json``) so the scaling benchmark can
show where the wall time went.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.net.errors import ConfigError
from repro.net.prng import splitmix64

__all__ = ["SHARD_STRATEGIES", "ShardPlanner", "ShardTiming"]

#: Recognized partitioning strategies.
SHARD_STRATEGIES: Tuple[str, ...] = ("hash", "block")


@dataclass
class ShardTiming:
    """Wall-time accounting for one (protocol, shard) scan unit."""

    protocol: str
    shard: int
    seconds: float
    records: int
    probes: int

    @property
    def records_per_second(self) -> float:
        """Throughput of this shard (0 when too fast to measure)."""
        return self.records / self.seconds if self.seconds > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-ready form for the metrics payload."""
        return {
            "protocol": self.protocol,
            "shard": self.shard,
            "seconds": round(self.seconds, 6),
            "records": self.records,
            "probes": self.probes,
            "records_per_second": round(self.records_per_second, 1),
        }


class ShardPlanner:
    """Deterministic address → shard assignment."""

    def __init__(self, shards: int = 1, strategy: str = "hash") -> None:
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if strategy not in SHARD_STRATEGIES:
            raise ConfigError(
                f"unknown shard strategy {strategy!r}; "
                f"expected one of {SHARD_STRATEGIES}"
            )
        self.shards = shards
        self.strategy = strategy

    def shard_of(self, address: int) -> int:
        """The shard owning ``address`` — pure in (address, K, strategy)."""
        if self.shards == 1:
            return 0
        if self.strategy == "block":
            return (address >> 24) % self.shards
        return splitmix64(address) % self.shards

    def partition(self, addresses: Iterable[int]) -> List[List[int]]:
        """Split addresses into ``K`` lists, preserving input order.

        Feed a sorted candidate list and every shard's slice is sorted
        too; the scanner re-sorts the merged records anyway, so callers
        may permute per-shard scan order freely (as ZMap does).
        """
        buckets: List[List[int]] = [[] for _ in range(self.shards)]
        if self.shards == 1:
            buckets[0].extend(addresses)
            return buckets
        shard_of = self.shard_of
        for address in addresses:
            buckets[shard_of(address)].append(address)
        return buckets

    def refs(self, unit: str) -> list:
        """Supervised-task identities for one protocol sweep's shards.

        One :class:`~repro.core.tasks.TaskRef` per shard, on the ``scan``
        plane — the names :func:`~repro.core.tasks.run_tasks` reports in
        :class:`~repro.net.errors.TaskFailure` and keys journal entries
        and injected ``task`` faults by.

        The shard count is folded into the unit: unlike the attack and
        telescope planes, whose (unit, day) task grid is independent of
        the worker count, a scan task's slice of the address space *is*
        ``(shard, K)`` — a journal entry written at one ``--shards`` must
        read as a miss (and the task re-run) at any other, or shard 0-of-1
        results would replay as shard 0-of-3.
        """
        # Imported here, not at module top: core.tasks pulls in the
        # repro.core package, whose init imports the scanner back.
        from repro.core.tasks import TaskRef

        return [
            TaskRef("scan", f"{unit}@{self.shards}", shard)
            for shard in range(self.shards)
        ]

    def describe(self) -> str:
        """One-line human description for logs."""
        return f"{self.shards} shard(s), {self.strategy} partitioning"
