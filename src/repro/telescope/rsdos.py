"""RSDoS attack metadata — the telescope's third data product.

The CAIDA telescope ships "Aggregated Daily RSDoS Attack Metadata"
alongside FlowTuple and raw pcaps (Section 3.4).  Randomly-Spoofed DoS
attacks reveal themselves in a darknet through **backscatter**: the victim
answers spoofed SYNs with SYN-ACKs/RSTs toward the spoofed (random)
sources, 1/256th of which land in a /8 telescope (Moore et al., the
network-telescope paper the study cites).

This module provides both directions:

* :class:`BackscatterGenerator` — given spoofed DoS attack specs, emit the
  victim's backscatter FlowTuples into a telescope capture;
* :class:`RsdosOperator` / :func:`detect_rsdos` — the Moore-style
  detector: group backscatter-flagged flows (SYN-ACK/RST from one source
  toward many dark addresses) into :class:`RsdosAttack` records, the
  daily metadata rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.columns import ColumnStore
from repro.core.operator import OperatorBase
from repro.net.ipv4 import CidrBlock, int_to_ip
from repro.net.packet import TcpFlags, TransportProtocol
from repro.net.prng import RandomStream
from repro.telescope.flowtuple import FlowTupleRecord

__all__ = [
    "SpoofedDosAttack",
    "RsdosAttack",
    "BackscatterGenerator",
    "RsdosOperator",
    "detect_rsdos",
]

_BACKSCATTER_FLAGS = int(TcpFlags.SYN | TcpFlags.ACK)


@dataclass(frozen=True)
class SpoofedDosAttack:
    """Ground truth of one randomly-spoofed DoS attack."""

    victim: int
    victim_port: int
    day: int
    duration_seconds: int
    packets_per_second: int

    @property
    def total_packets(self) -> int:
        """Attack volume at the victim."""
        return self.duration_seconds * self.packets_per_second


@dataclass
class RsdosAttack:
    """One detected attack — a row of the daily RSDoS metadata."""

    victim: int
    victim_port: int
    day: int
    backscatter_packets: int
    distinct_dark_targets: int
    #: Telescope sees 1/256 of random spoofing; this rescales to the
    #: victim-side volume estimate the CAIDA metadata reports.
    estimated_attack_packets: int = 0

    @property
    def victim_text(self) -> str:
        """Dotted-quad victim address."""
        return int_to_ip(self.victim)


class BackscatterGenerator:
    """Emits victim backscatter for spoofed attacks into a capture."""

    def __init__(
        self,
        dark_prefix: str = "44.0.0.0/8",
        seed: int = 7,
        *,
        telescope_fraction: float = 1 / 256,
        packet_scale: int = 16_384,
    ) -> None:
        self.dark = CidrBlock.parse(dark_prefix)
        self.telescope_fraction = telescope_fraction
        self.packet_scale = packet_scale
        self._stream = RandomStream(seed, "telescope.backscatter")

    def emit(
        self,
        attack: SpoofedDosAttack,
        writer,
        stream: Optional[RandomStream] = None,
    ) -> int:
        """Write the attack's backscatter records; returns packets emitted.

        The victim answers spoofed sources uniformly at random; the dark /8
        receives ``telescope_fraction`` of them, spread over distinct dark
        addresses (which is the detection signature).

        ``stream`` overrides the generator's internal sequential stream;
        the sharded telescope passes a per-attack derived stream so the
        emission is a pure function of the attack key instead of the
        global emission order.
        """
        stream = stream if stream is not None else self._stream
        landed = int(
            attack.total_packets * self.telescope_fraction / self.packet_scale
        )
        if landed <= 0:
            landed = 1
        # Spread over up to a few hundred distinct dark destinations.
        n_targets = min(landed, max(8, landed // 4))
        per_target = max(1, landed // n_targets)
        emitted = 0
        for _ in range(n_targets):
            dark_destination = stream.randint(
                self.dark.first, self.dark.last
            )
            writer.add(FlowTupleRecord(
                time=attack.day * 86_400 + stream.randint(0, 86_399),
                src_ip=attack.victim,
                dst_ip=dark_destination,
                src_port=attack.victim_port,
                dst_port=stream.randint(1024, 65_535),
                protocol=TransportProtocol.TCP,
                ttl=stream.randint(48, 64),
                tcp_flags=_BACKSCATTER_FLAGS,
                ip_len=44,
                packet_count=per_target,
                is_spoofed=False,  # backscatter sources are real victims
                country="",
                asn=0,
            ))
            emitted += per_target
        return emitted


class RsdosOperator(OperatorBase):
    """The RSDoS detector as an online fold.

    A source sending SYN-ACKs to at least ``min_dark_targets`` distinct
    dark addresses on one day is inferred to be a DoS *victim*; the
    attack volume is estimated by rescaling the observed backscatter.
    Buckets keep only that fold (packet sum + distinct dark targets),
    not the flows, so a month-long stream stays flat in memory.
    """

    name = "rsdos"
    plane = "telescope"

    def __init__(
        self,
        *,
        min_dark_targets: int = 8,
        telescope_fraction: float = 1 / 256,
        packet_scale: int = 16_384,
    ) -> None:
        super().__init__()
        self._min_dark_targets = min_dark_targets
        self._telescope_fraction = telescope_fraction
        self._packet_scale = packet_scale
        #: (src_ip, src_port, day) -> [backscatter packets, dark targets]
        self._buckets: Dict[Tuple[int, int, int], list] = {}

    def _feed_row(self, row: FlowTupleRecord) -> None:
        if row.tcp_flags != _BACKSCATTER_FLAGS:
            return
        key = (row.src_ip, row.src_port, row.day)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = [0, set()]
            self._buckets[key] = bucket
        bucket[0] += row.packet_count
        bucket[1].add(row.dst_ip)

    def snapshot(self) -> List[RsdosAttack]:
        attacks: List[RsdosAttack] = []
        for (victim, port, day), (packets, targets) in sorted(
            self._buckets.items()
        ):
            if len(targets) < self._min_dark_targets:
                continue
            attacks.append(RsdosAttack(
                victim=victim,
                victim_port=port,
                day=day,
                backscatter_packets=packets,
                distinct_dark_targets=len(targets),
                estimated_attack_packets=int(
                    packets * self._packet_scale / self._telescope_fraction
                ),
            ))
        return attacks


def detect_rsdos(
    records: Iterable[FlowTupleRecord],
    *,
    min_dark_targets: int = 8,
    telescope_fraction: float = 1 / 256,
    packet_scale: int = 16_384,
) -> List[RsdosAttack]:
    """Moore-style backscatter detection over a record stream
    (:class:`RsdosOperator` fed once).  Accepts any record iterable,
    including a :class:`~repro.core.columns.ColumnStore` (the
    telescope's flow store)."""
    if isinstance(records, ColumnStore):
        records = records.iter_rows()
    operator = RsdosOperator(
        min_dark_targets=min_dark_targets,
        telescope_fraction=telescope_fraction,
        packet_scale=packet_scale,
    )
    operator.feed(records)
    return operator.finalize()
