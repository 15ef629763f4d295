"""IPv4 address and CIDR-block machinery.

Addresses are represented as plain ``int`` (0 .. 2**32-1) throughout the hot
paths of the simulation; the helpers here convert between dotted-quad strings
and integers and implement CIDR containment, iteration and allocation.

We deliberately do not use :mod:`ipaddress` objects in the data plane: a
simulated Internet holds hundreds of thousands of hosts, and ints keyed in
dicts are several times faster and leaner than ``IPv4Address`` instances.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, List, Sequence, Tuple

from repro.net.errors import AddressError, AllocationError

__all__ = [
    "ip_to_int",
    "int_to_ip",
    "octets",
    "is_valid_ip",
    "CidrBlock",
    "AddressAllocator",
    "RESERVED_BLOCKS",
]


def ip_to_int(text: str) -> int:
    """Parse a dotted-quad IPv4 string into an integer.

    Raises :class:`AddressError` on malformed input, including octets with
    leading zeros (which are ambiguous — historically octal).
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"non-numeric octet in {text!r}")
        if len(part) > 1 and part[0] == "0":
            raise AddressError(f"leading zero octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def octets(value: int) -> Tuple[int, int, int, int]:
    """The four octets of an IPv4 address, most significant first.

    Raises :class:`AddressError` for a value outside 0 .. 2**32-1.
    """
    if not 0 <= value <= 0xFFFFFFFF:
        raise AddressError(f"address out of range: {value}")
    return (value >> 24, (value >> 16) & 0xFF, (value >> 8) & 0xFF,
            value & 0xFF)


def int_to_ip(value: int) -> str:
    """Render an integer as a dotted-quad IPv4 string."""
    return "%d.%d.%d.%d" % octets(value)


def is_valid_ip(text: str) -> bool:
    """True if ``text`` parses as a dotted-quad IPv4 address."""
    try:
        ip_to_int(text)
    except AddressError:
        return False
    return True


@dataclass(frozen=True)
class CidrBlock:
    """An IPv4 CIDR block, e.g. ``10.0.0.0/8``.

    Attributes
    ----------
    network:
        Network base address as an int (host bits already zeroed).
    prefix:
        Prefix length, 0..32.
    """

    network: int
    prefix: int

    @classmethod
    def parse(cls, text: str) -> "CidrBlock":
        """Parse ``"a.b.c.d/len"`` (a bare address means ``/32``)."""
        if "/" in text:
            addr_text, _, prefix_text = text.partition("/")
            if not prefix_text.isdigit():
                raise AddressError(f"bad prefix in {text!r}")
            prefix = int(prefix_text)
        else:
            addr_text, prefix = text, 32
        if not 0 <= prefix <= 32:
            raise AddressError(f"prefix out of range in {text!r}")
        base = ip_to_int(addr_text)
        return cls(network=base & cls._mask(prefix), prefix=prefix)

    @staticmethod
    def _mask(prefix: int) -> int:
        return 0 if prefix == 0 else (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF

    @property
    def netmask(self) -> int:
        """The netmask as an int."""
        return self._mask(self.prefix)

    @property
    def size(self) -> int:
        """Number of addresses in the block."""
        return 1 << (32 - self.prefix)

    @property
    def first(self) -> int:
        """First (network) address."""
        return self.network

    @property
    def last(self) -> int:
        """Last (broadcast) address."""
        return self.network | (self.size - 1)

    def contains(self, address: int) -> bool:
        """True if ``address`` falls inside this block."""
        return (address & self.netmask) == self.network

    def overlaps(self, other: "CidrBlock") -> bool:
        """True if the two blocks share any address."""
        return self.first <= other.last and other.first <= self.last

    def addresses(self) -> Iterator[int]:
        """Iterate every address in the block (use with care on short prefixes)."""
        return iter(range(self.first, self.last + 1))

    def subnets(self, new_prefix: int) -> Iterator["CidrBlock"]:
        """Split into subnets of ``new_prefix`` length."""
        if new_prefix < self.prefix or new_prefix > 32:
            raise AddressError(
                f"cannot split /{self.prefix} into /{new_prefix}"
            )
        step = 1 << (32 - new_prefix)
        for base in range(self.first, self.last + 1, step):
            yield CidrBlock(base, new_prefix)

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.prefix}"

    def __contains__(self, address: int) -> bool:
        return self.contains(address)


#: Blocks that are never routable on the public Internet; the population
#: builder and scanners both skip these, mirroring ZMap's default blocklist.
RESERVED_BLOCKS: List[CidrBlock] = [
    CidrBlock.parse("0.0.0.0/8"),        # "this" network
    CidrBlock.parse("10.0.0.0/8"),       # RFC 1918
    CidrBlock.parse("100.64.0.0/10"),    # CGN shared space
    CidrBlock.parse("127.0.0.0/8"),      # loopback
    CidrBlock.parse("169.254.0.0/16"),   # link local
    CidrBlock.parse("172.16.0.0/12"),    # RFC 1918
    CidrBlock.parse("192.0.2.0/24"),     # TEST-NET-1
    CidrBlock.parse("192.168.0.0/16"),   # RFC 1918
    CidrBlock.parse("198.18.0.0/15"),    # benchmarking
    CidrBlock.parse("198.51.100.0/24"),  # TEST-NET-2
    CidrBlock.parse("203.0.113.0/24"),   # TEST-NET-3
    CidrBlock.parse("224.0.0.0/4"),      # multicast
    CidrBlock.parse("240.0.0.0/4"),      # reserved
]


# The reserved blocks are ascending and disjoint, so containment is one
# bisection over the block starts — this runs once per allocation attempt.
_RESERVED_RANGES: List[Tuple[int, int]] = [
    (block.first, block.last) for block in RESERVED_BLOCKS
]
_RESERVED_FIRSTS: List[int] = [first for first, _ in _RESERVED_RANGES]


def _is_reserved(address: int) -> bool:
    index = bisect(_RESERVED_FIRSTS, address) - 1
    return index >= 0 and address <= _RESERVED_RANGES[index][1]


class AddressAllocator:
    """Hands out unique public IPv4 addresses inside a set of CIDR pools.

    Allocation is pseudo-random (so hosts are scattered across each pool like
    real allocations, not densely packed) but fully deterministic given the
    stream passed in.  Reserved blocks are never allocated even if a pool
    overlaps them.
    """

    def __init__(self, pools: Sequence[CidrBlock], stream) -> None:
        if not pools:
            raise AllocationError("allocator needs at least one pool")
        self._pools = list(pools)
        self._stream = stream
        self._allocated: set = set()
        self._weights = [pool.size for pool in self._pools]
        self._cum_weights = list(accumulate(self._weights))
        # Usable (low, high) per pool, skipping network/broadcast addresses
        # for realism on small pools.
        self._bounds = [
            (
                pool.first + (1 if pool.prefix < 31 else 0),
                pool.last - (1 if pool.prefix < 31 else 0),
            )
            for pool in self._pools
        ]

    @property
    def allocated_count(self) -> int:
        """Number of addresses handed out so far."""
        return len(self._allocated)

    def allocate(self) -> int:
        """Return a fresh unique address from a random pool.

        Raises :class:`AllocationError` when the pools are effectively full
        (after a bounded number of rejection-sampling attempts a linear scan
        is performed, so exhaustion is detected reliably).
        """
        rng = getattr(self._stream, "rng", self._stream)
        cum = self._cum_weights
        total = cum[-1]
        last = len(cum) - 1
        allocated = self._allocated
        for _ in range(64):
            # Draw-identical to ``pick_weighted`` over the pools: ``choices``
            # with k=1 consumes exactly one uniform and bisects cumulative
            # weights, which we precompute instead of rebuilding per call.
            low, high = self._bounds[bisect(cum, rng.random() * total, 0, last)]
            if low > high:
                continue
            candidate = rng.randint(low, high)
            if candidate in allocated or _is_reserved(candidate):
                continue
            allocated.add(candidate)
            return candidate
        # Rejection sampling failed; fall back to an ordered sweep (still
        # skipping network/broadcast addresses like the sampling path).
        for low, high in self._bounds:
            for candidate in range(low, high + 1):
                if candidate not in self._allocated and not _is_reserved(candidate):
                    self._allocated.add(candidate)
                    return candidate
        raise AllocationError("all allocator pools are exhausted")

    def allocate_many(self, count: int) -> List[int]:
        """Allocate ``count`` unique addresses."""
        return [self.allocate() for _ in range(count)]
