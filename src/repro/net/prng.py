"""Deterministic, splittable pseudo-random streams.

Every stochastic component of the simulation draws from a :class:`RandomStream`
derived from a single study seed.  Streams are *named*: a stream for
``"population.telnet"`` is independent of the stream for ``"attacks.mirai"``,
and both are fully determined by ``(seed, name)``.  This is what makes the
whole reproduction byte-for-byte repeatable: adding a new consumer of
randomness never perturbs the draws of existing consumers, because each
consumer owns its own stream.

The implementation hashes ``(seed, name)`` with SHA-256 and feeds the digest
into :class:`random.Random`, which is more than adequate statistically for a
simulation (we do not need cryptographic randomness, we need stability).

Two spawning styles coexist:

* :meth:`RandomStream.child` — the original dotted-name derivation, for
  singleton consumers wired up at construction time;
* :meth:`RandomStream.derive` — SplitMix-style *key-based* spawning for
  fan-out consumers (scan shards, per-probe decisions).  A derived stream
  is a pure function of ``(seed, name, key parts)``: it does not matter how
  many draws the parent or any sibling has made, nor in which order shards
  ask for their streams.  This is what lets K scan shards run concurrently
  and still reproduce the serial byte stream exactly.

:func:`keyed_uniform` is the stateless end of the same idea: one uniform
float fully determined by a key, with no stream object at all — the fabric
loss model uses it so that packet-loss verdicts are independent of the
order probes happen to traverse the fabric.
"""

from __future__ import annotations

import hashlib
import random
import threading
from bisect import bisect
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence, TypeVar, Union

import numpy as np

T = TypeVar("T")
KeyPart = Union[int, str]

__all__ = [
    "DEFAULT_SEED",
    "RandomStream",
    "WeightedPicker",
    "derive_seed",
    "derive_key_seed",
    "keyed_uniform",
    "keyed_uniform_array",
    "resolve_seed",
    "splitmix64",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Below this many draws the scalar SplitMix64 loop beats the vectorized
#: mix of :func:`keyed_uniform_array`.  Both paths yield identical floats,
#: so the threshold is a pure performance knob.
_BATCH_MIN = 64

#: Below this many draws :meth:`RandomStream.uniform_array`'s MT19937
#: state transplant (624 words copied each way, ~200 µs) costs more than
#: the scalar loop: break-even measured at 2,048-2,176 draws (timeit, 2
#: vCPUs, Python 3.11, numpy 2.4).  Also a pure performance knob.
_TRANSPLANT_MIN = 2048

#: Words in the Mersenne Twister state vector.
_MT_N = 624

#: Each thread's scratch ``RandomState`` for the batch transplant, built
#: once: a fresh one would seed itself from OS entropy on every call,
#: only for the transplant to overwrite that state.
_TWISTERS = threading.local()


def _scratch_twister() -> "np.random.RandomState":
    """The calling thread's scratch ``RandomState``."""
    twister = getattr(_TWISTERS, "twister", None)
    if twister is None:
        twister = _TWISTERS.twister = np.random.RandomState(0)
    return twister

#: The study-wide default seed.  Sub-configs use ``seed=None`` as an
#: "inherit from the master config" sentinel; a bare ``None`` reaching a
#: stream resolves here so standalone components stay usable.
DEFAULT_SEED = 7


def resolve_seed(seed: Optional[int]) -> int:
    """Collapse the ``None`` inherit-sentinel to the concrete default."""
    return DEFAULT_SEED if seed is None else seed


def derive_seed(seed: Optional[int], name: str) -> int:
    """Derive a 64-bit child seed from a parent ``seed`` and a stream ``name``.

    The derivation is stable across Python versions and platforms (it does not
    rely on ``hash()``, which is salted).
    """
    payload = f"{resolve_seed(seed)}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def splitmix64(state: int) -> int:
    """One SplitMix64 output step (Steele et al., the JDK's splittable PRNG).

    Used as the mixing function for key-based stream derivation: it is
    cheap, stable across platforms, and avalanches every input bit.
    """
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_part(state: int, part: KeyPart) -> int:
    """Fold one key part into the mixer state."""
    if isinstance(part, bool):  # bool is an int subclass; keep it distinct
        part = 0x42 + int(part)
    if isinstance(part, int):
        return splitmix64(state ^ (part & _MASK64) ^ ((part >> 64) & _MASK64))
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return splitmix64(state ^ int.from_bytes(digest[:8], "big"))


def derive_key_seed(seed: Optional[int], name: str, *key: KeyPart) -> int:
    """A 64-bit seed fully determined by ``(seed, name, key parts)``.

    Unlike sequential ``spawn`` designs, the derivation consumes no parent
    state: deriving keys in any order (or concurrently) yields the same
    seeds, which is the property the sharded scanner's determinism test
    pins down.
    """
    state = derive_seed(seed, name)
    for part in key:
        state = _mix_part(state, part)
    return splitmix64(state)


def keyed_uniform(seed: Optional[int], name: str, *key: KeyPart) -> float:
    """One uniform float in [0, 1) addressed purely by a key.

    The float is the 53-bit mantissa fraction of the derived seed, so two
    calls with equal keys always agree and calls with different keys are
    statistically independent — a random *function*, not a random stream.
    """
    return (derive_key_seed(seed, name, *key) >> 11) / float(1 << 53)


def _splitmix64_array(values):
    """Vectorized :func:`splitmix64` over a ``uint64`` ndarray (wrapping
    arithmetic stands in for the scalar path's ``& _MASK64``)."""
    values = values + np.uint64(0x9E3779B97F4A7C15)
    z = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def keyed_uniform_array(
    seed: Optional[int], name: str, n: int, *key: KeyPart, start: int = 0
):
    """``n`` keyed uniforms — element ``i`` equals
    ``keyed_uniform(seed, name, *key, start + i)`` exactly.

    The batch twin of :func:`keyed_uniform` for hot loops that consume a
    keyed draw per item of an indexed collection.  ``start`` offsets the
    trailing index key part, so a consumer that has already spent the
    first ``k`` draws of a flow (e.g. per-attempt loss verdicts) can
    batch the remainder without re-deriving the spent prefix.  The
    result is a ``float64`` ndarray: for large ``n`` the SplitMix64 mix
    runs vectorized over ``uint64`` arrays, for small ``n`` a scalar
    loop is cheaper.  Both spell out the same IEEE doubles.
    """
    if n < _BATCH_MIN:
        return np.array(
            [keyed_uniform(seed, name, *key, i)
             for i in range(start, start + n)],
            dtype=np.float64,
        )
    state = derive_seed(seed, name)
    for part in key:
        state = _mix_part(state, part)
    indexes = np.arange(start, start + n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = _splitmix64_array(np.uint64(state) ^ indexes)
        final = _splitmix64_array(mixed)
    return (final >> np.uint64(11)) / float(1 << 53)


class RandomStream:
    """A named, deterministic random stream.

    Parameters
    ----------
    seed:
        The study-level master seed.
    name:
        A dotted path identifying the consumer, e.g. ``"population.mqtt"``.
    """

    def __init__(self, seed: Optional[int], name: str) -> None:
        self.seed = resolve_seed(seed)
        self.name = name
        self._rng = random.Random(derive_seed(self.seed, name))

    def child(self, suffix: str) -> "RandomStream":
        """Return an independent sub-stream named ``<name>.<suffix>``."""
        return RandomStream(self.seed, f"{self.name}.{suffix}")

    def derive(self, *key: KeyPart) -> "RandomStream":
        """Key-derived sub-stream — SplitMix-style stable spawning.

        ``stream.derive("telnet", 3)`` is a pure function of the stream's
        ``(seed, name)`` identity and the key parts: independent of every
        draw made from this stream or its other children, and of the order
        sibling derivations happen.  Use it wherever consumers fan out
        dynamically (one stream per scan shard, per protocol, per host).
        """
        derived = RandomStream.__new__(RandomStream)
        derived.seed = self.seed
        derived.name = f"{self.name}[{','.join(str(part) for part in key)}]"
        derived._rng = random.Random(
            derive_key_seed(self.seed, self.name, *key)
        )
        return derived

    @property
    def rng(self) -> random.Random:
        """The underlying :class:`random.Random`.

        Hot loops bind its C-implemented methods directly
        (``rnd = stream.rng.random``) to skip the wrapper call below;
        the draws are identical either way.
        """
        return self._rng

    # -- thin, typed wrappers over random.Random -------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def uniform_array(self, n: int):
        """``n`` uniform floats in [0, 1) — bit-identical to ``n``
        sequential :meth:`random` calls, batched.

        **Determinism contract.**  Element ``i`` is exactly the float the
        ``i``-th scalar ``random()`` call would have produced, and after
        the call the stream continues precisely as if those ``n`` scalar
        draws had happened: CPython and NumPy both run MT19937 and both
        build doubles as ``(a >> 5) * 2^26 + (b >> 6)) / 2^53``, so the
        fast path transplants the Twister state into the thread's scratch
        ``numpy.random.RandomState``, draws the block vectorized, and
        transplants the advanced state back.  For small ``n``, where the
        624-word transplant costs more than the loop, a scalar loop
        produces the same values.
        """
        if n < _TRANSPLANT_MIN:
            rnd = self._rng.random
            return np.array([rnd() for _ in range(n)], dtype=np.float64)
        version, internal, gauss_next = self._rng.getstate()
        twister = _scratch_twister()
        twister.set_state((
            "MT19937",
            np.asarray(internal[:_MT_N], dtype=np.uint32),
            internal[_MT_N],
        ))
        out = twister.random_sample(n)
        advanced = twister.get_state()
        self._rng.setstate((
            version,
            tuple(advanced[1].tolist()) + (advanced[2],),
            gauss_next,
        ))
        return out

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._rng.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate (lambda)."""
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal variate."""
        return self._rng.gauss(mu, sigma)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._rng.choice(seq)

    def choices(self, seq: Sequence[T], weights: Sequence[float], k: int) -> List[T]:
        """``k`` weighted choices with replacement."""
        return self._rng.choices(seq, weights=weights, k=k)

    def weighted_picker(
        self, seq: Sequence[T], weights: Sequence[float]
    ) -> "WeightedPicker[T]":
        """A reusable one-draw picker over a fixed weight table.

        Each :meth:`WeightedPicker.pick` is bit-identical to
        ``choices(seq, weights, k=1)[0]`` — one ``random()`` draw bisected
        against the accumulated weights, exactly as :mod:`random` does it —
        but the cumulative table is built once here instead of on every
        call, which is what hot planning loops with static weights want.
        """
        return WeightedPicker(self, seq, weights)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """``k`` distinct elements sampled without replacement."""
        return self._rng.sample(seq, k)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._rng.shuffle(items)

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        return self._rng.random() < p

    def poisson(self, lam: float) -> int:
        """Poisson variate via inversion (exact for the small lambdas we use,
        normal approximation above 500 to stay O(1))."""
        if lam <= 0:
            return 0
        if lam > 500:
            value = int(round(self._rng.gauss(lam, lam ** 0.5)))
            return max(0, value)
        # Knuth inversion.
        import math

        threshold = math.exp(-lam)
        k = 0
        product = self._rng.random()
        while product > threshold:
            k += 1
            product *= self._rng.random()
        return k

    def bytes(self, n: int) -> bytes:
        """``n`` pseudo-random bytes (one ``getrandbits`` call, big-endian)."""
        if n <= 0:
            return b""
        return self._rng.getrandbits(n * 8).to_bytes(n, "big")

    def hex_token(self, n_bytes: int) -> str:
        """Hex string of ``n_bytes`` random bytes."""
        return self.bytes(n_bytes).hex()

    def pick_weighted(self, table: Iterable[tuple]) -> T:
        """Pick from an iterable of ``(item, weight)`` pairs."""
        items, weights = zip(*table)
        return self._rng.choices(items, weights=weights, k=1)[0]


class WeightedPicker:
    """Repeated weighted single picks with the cumulative table hoisted.

    CPython's ``random.choices`` rebuilds ``accumulate(weights)`` on every
    call and then bisects it against ``random() * total``; when the same
    weight table feeds thousands of ``k=1`` picks (session planning), the
    rebuild dominates.  This class builds the table once and replays the
    exact same draw-and-bisect, so the picks — and the stream state after
    them — are bit-identical to ``stream.choices(seq, weights, k=1)[0]``.
    :meth:`pick` draws from the stream the picker was built on;
    :meth:`pick_from` draws from any stream, so one table serves many
    (``stream`` may then be ``None``).
    """

    __slots__ = ("_seq", "_cum", "_total", "_hi", "_random")

    def __init__(
        self,
        stream: Optional[RandomStream],
        seq: Sequence[T],
        weights: Sequence[float],
    ) -> None:
        if len(seq) != len(weights):
            raise ValueError("seq and weights must have equal length")
        if not seq:
            raise ValueError("cannot pick from an empty sequence")
        self._seq = list(seq)
        self._cum = list(accumulate(weights))
        self._total = self._cum[-1] + 0.0
        if self._total <= 0.0:
            raise ValueError("total of weights must be greater than zero")
        self._hi = len(self._seq) - 1
        self._random = None if stream is None else stream._rng.random

    def pick(self) -> T:
        """One weighted pick (consumes exactly one ``random()`` draw)."""
        return self._seq[
            bisect(self._cum, self._random() * self._total, 0, self._hi)
        ]

    def pick_from(self, stream: RandomStream) -> T:
        """:meth:`pick`, drawing its ``random()`` from ``stream``."""
        return self._seq[
            bisect(self._cum, stream._rng.random() * self._total, 0, self._hi)
        ]
