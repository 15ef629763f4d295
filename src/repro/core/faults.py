"""Deterministic, seeded fault injection for the measurement pipeline.

Real campaigns of the paper's kind survive packet loss, rate-limited
peers, host churn and partial vantage failures; a pipeline that cannot
*reproduce* those failures cannot test its own recovery paths.  This
module is the failure mirror of :class:`~repro.internet.fabric.ProbeLossModel`:
whether a named injection **site** raises is a pure function of
``(seed, site, key, attempt)`` via :func:`~repro.net.prng.keyed_uniform` —
no shared stream, no draw-order coupling — so an injected failure schedule
is byte-reproducible under any worker count and any interleaving.

Injection sites (the :data:`FAULT_SITES` registry):

* ``task``           — supervised task execution (one check per attempt of
  every ``(plane, unit, day/shard)`` task in
  :func:`~repro.core.tasks.run_tasks`);
* ``cache.io``       — phase-cache and task-journal disk I/O, which must
  degrade to a miss / skipped write, never an error;
* ``store.corrupt``  — *mutates* rather than raises: deterministically
  bit-flips one byte of a journal/cache blob on write or read (via
  :func:`maybe_corrupt`), proving the integrity envelopes detect and
  quarantine storage damage;
* ``deadline``       — *delays* rather than raises: injects a configurable
  ``time.sleep`` into supervised tasks (via :func:`maybe_delay`), driving
  the soft/hard deadline supervision in :func:`~repro.core.tasks.run_tasks`;
* ``fabric.connect`` — the simulated Internet's connect/query primitives
  (an infrastructure fault, distinct from modelled probe loss);
* ``dataset.load``   — open-dataset snapshots and intel-store builds (the
  optional vantage points a degraded study may drop);
* ``worker.crash``   — *kills the process* rather than raises: the worker
  calls ``os._exit`` (via :func:`maybe_crash`), simulating a SIGKILL'd /
  OOM-killed pool worker.  Checked only inside process-pool workers, so
  the serial executor never sees it — which is exactly what
  lets the pool supervisor's downgrade ladder terminate;
* ``worker.hang``    — *delays* like ``deadline`` but is checked at the
  chunk level inside process-pool workers (default sleep
  :data:`DEFAULT_HANG_DELAY` seconds), driving the pool supervisor's
  no-progress watchdog in :func:`~repro.core.tasks.run_tasks`.

A fault is **transient** (cleared by a supervised retry: the attempt
number advances the key, so the retry draws a fresh verdict) or **fatal**
(raised every attempt; ends the task).  Nothing fires unless an injector
is :func:`install`-ed — production runs pay one ``None`` check per site.

Specs (the CLI's ``--inject-faults``) are comma-separated
``site[@plane]:rate[:kind][:delay]`` entries — ``kind`` is ``transient``
or ``fatal``, and ``delay`` (seconds, only meaningful for ``deadline`` /
``worker.hang``) may also stand alone in the third slot since a bare
number is unambiguous.  An ``@plane`` suffix scopes the rule to keys
whose first component equals ``plane`` (useful for aiming worker faults
at one measurement plane)::

    task:0.2,fabric.connect:0.05:transient,store.corrupt:0.3,deadline:0.5:0.25
    worker.crash@attacks:0.1,worker.hang@telescope:0.02:20
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.net.errors import (
    ConfigError,
    FatalFaultError,
    FaultError,
    TransientFaultError,
)
from repro.net.prng import keyed_uniform

__all__ = [
    "FAULT_SITES",
    "FAULT_KINDS",
    "DEFAULT_DEADLINE_DELAY",
    "DEFAULT_HANG_DELAY",
    "WORKER_CRASH_EXIT",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "active",
    "install",
    "uninstall",
    "injected",
    "maybe_fail",
    "maybe_corrupt",
    "maybe_delay",
    "maybe_crash",
    "task_attempt",
]

#: The named injection sites the codebase is instrumented with.
FAULT_SITES: Tuple[str, ...] = (
    "task", "cache.io", "store.corrupt", "deadline",
    "fabric.connect", "dataset.load", "worker.crash", "worker.hang",
)

#: Recognized fault kinds.
FAULT_KINDS: Tuple[str, ...] = ("transient", "fatal")

#: Injected task delay (seconds) when a ``deadline`` rule omits one.
DEFAULT_DEADLINE_DELAY = 0.05

#: Injected worker sleep (seconds) when a ``worker.hang`` rule omits one
#: — long enough to trip any sanely configured pool watchdog.
DEFAULT_HANG_DELAY = 30.0

#: Exit status a ``worker.crash`` verdict kills the worker process with
#: (visible to the parent as abrupt worker death, like a SIGKILL/OOM).
WORKER_CRASH_EXIT = 70


@dataclass(frozen=True)
class FaultRule:
    """One site's failure law: fire with ``rate`` probability per check."""

    site: str
    rate: float
    kind: str = "transient"
    #: Injected sleep in seconds when this rule fires at a delaying site
    #: (``deadline`` / ``worker.hang``); ignored by raising, corrupting
    #: and crashing sites.
    delay: float = 0.0
    #: Optional key scope: when set, the rule only fires for checks whose
    #: first key component equals this value (the plane name for task and
    #: worker sites).  Parsed from the ``site@plane`` spec spelling.
    plane: str = ""

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; "
                f"expected one of {FAULT_SITES}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(
                f"fault rate must be in [0, 1], got {self.rate}"
            )
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.delay < 0.0:
            raise ConfigError(
                f"fault delay must be >= 0 seconds, got {self.delay}"
            )
        if self.site == "deadline" and self.delay == 0.0:
            object.__setattr__(self, "delay", DEFAULT_DEADLINE_DELAY)
        if self.site == "worker.hang" and self.delay == 0.0:
            object.__setattr__(self, "delay", DEFAULT_HANG_DELAY)


class FaultPlan:
    """A seeded set of :class:`FaultRule` entries, one per site at most."""

    def __init__(self, rules: Iterable[FaultRule], seed: int = 0) -> None:
        self.seed = seed
        self.rules: Dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site in self.rules:
                raise ConfigError(
                    f"fault site {rule.site!r} specified twice"
                )
            self.rules[rule.site] = rule

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a ``site[@plane]:rate[:kind][:delay]`` comma list.

        The third token is a kind (``transient``/``fatal``) or, since a
        bare number is unambiguous, a delay in seconds; with four tokens
        the order is fixed as ``site:rate:kind:delay``.  An ``@plane``
        suffix on the site scopes the rule to keys whose first component
        equals ``plane``.  Every rejection is a
        :class:`~repro.net.errors.ConfigError` naming the offending
        token, the entry it sits in, and — for site typos — the full list
        of valid sites.
        """
        rules = []
        for chunk in filter(None, (c.strip() for c in spec.split(","))):
            parts = chunk.split(":")
            if not 2 <= len(parts) <= 4:
                raise ConfigError(
                    f"bad fault entry {chunk!r}: expected "
                    "site[@plane]:rate[:transient|fatal][:delay-seconds], "
                    f"got {len(parts)} token(s); valid sites: "
                    f"{', '.join(FAULT_SITES)}"
                )
            site, _, plane = parts[0].partition("@")
            if site not in FAULT_SITES:
                raise ConfigError(
                    f"unknown fault site {site!r} in entry {chunk!r}; "
                    f"valid sites: {', '.join(FAULT_SITES)}"
                )
            try:
                rate = float(parts[1])
            except ValueError:
                raise ConfigError(
                    f"fault rate {parts[1]!r} in entry {chunk!r} is not "
                    "a number; expected a probability in [0, 1]"
                ) from None
            kind = "transient"
            delay = 0.0
            if len(parts) == 4:
                if parts[2] not in FAULT_KINDS:
                    raise ConfigError(
                        f"fault kind {parts[2]!r} in entry {chunk!r} is "
                        f"not one of {', '.join(FAULT_KINDS)}"
                    )
                kind = parts[2]
                try:
                    delay = float(parts[3])
                except ValueError:
                    raise ConfigError(
                        f"fault delay {parts[3]!r} in entry {chunk!r} is "
                        "not a number; expected seconds"
                    ) from None
            elif len(parts) == 3:
                if parts[2] in FAULT_KINDS:
                    kind = parts[2]
                else:
                    try:
                        delay = float(parts[2])
                    except ValueError:
                        raise ConfigError(
                            f"token {parts[2]!r} in entry {chunk!r} is "
                            "neither a fault kind "
                            f"({', '.join(FAULT_KINDS)}) nor a "
                            "delay in seconds"
                        ) from None
            rules.append(FaultRule(
                site=site, rate=rate, kind=kind, delay=delay, plane=plane,
            ))
        if not rules:
            raise ConfigError(
                f"empty fault spec {spec!r}; expected comma-separated "
                "site[@plane]:rate[:kind][:delay] entries; valid sites: "
                f"{', '.join(FAULT_SITES)}"
            )
        return cls(rules, seed=seed)

    def describe(self) -> str:
        """One-line human description for logs."""
        return ", ".join(
            f"{rule.site}"
            + (f"@{rule.plane}" if rule.plane else "")
            + f":{rule.rate:g}:{rule.kind}"
            + (f":{rule.delay:g}s" if rule.delay > 0.0 else "")
            for rule in self.rules.values()
        )


# Thread-local supervised-attempt context: run_tasks sets the current
# attempt number around each task attempt, so every keyed verdict drawn
# inside the task (fabric.connect included) folds the attempt in and a
# retry sees a fresh, independent failure schedule.
_context = threading.local()


@contextmanager
def task_attempt(attempt: int) -> Iterator[None]:
    """Scope the current supervised-task attempt number (thread-local)."""
    previous = getattr(_context, "attempt", 0)
    _context.attempt = attempt
    try:
        yield
    finally:
        _context.attempt = previous


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at injection sites, statelessly."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def would_fail(self, site: str, *key) -> Optional[FaultRule]:
        """The rule that fires for this ``(site, key, attempt)``, if any."""
        rule = self.plan.rules.get(site)
        if rule is None or rule.rate <= 0.0:
            return None
        if rule.plane and (not key or key[0] != rule.plane):
            return None  # rule is scoped to another plane's keys
        attempt = getattr(_context, "attempt", 0)
        draw = keyed_uniform(
            self.plan.seed, f"fault.{site}", *key, attempt
        )
        return rule if draw < rule.rate else None

    def check(self, site: str, *key) -> None:
        """Raise the site's typed fault when its seeded verdict fires."""
        rule = self.would_fail(site, *key)
        if rule is None:
            return
        error = (TransientFaultError if rule.kind == "transient"
                 else FatalFaultError)
        raise error(
            f"injected {rule.kind} fault at {site} "
            f"(key={key!r}, rate={rule.rate:g})",
            site=site, key=key,
        )

    def corrupt_bytes(self, data: bytes, *key) -> bytes:
        """Bit-flip one byte of ``data`` when ``store.corrupt`` fires.

        Both the fire/no-fire verdict and the flipped position are pure
        functions of ``(seed, key, attempt)``, so a corruption schedule is
        byte-reproducible under any worker count — the same discipline as
        every other injected fault.  Empty blobs pass through untouched.
        """
        if not data or self.would_fail("store.corrupt", *key) is None:
            return data
        attempt = getattr(_context, "attempt", 0)
        position = int(
            keyed_uniform(
                self.plan.seed, "fault.store.corrupt.position", *key, attempt
            ) * len(data)
        ) % len(data)
        bit = int(
            keyed_uniform(
                self.plan.seed, "fault.store.corrupt.bit", *key, attempt
            ) * 8
        ) % 8
        damaged = bytearray(data)
        damaged[position] ^= 1 << bit
        return bytes(damaged)

    def delay_seconds(self, site: str, *key) -> float:
        """The injected sleep for this ``(site, key, attempt)``, or 0."""
        rule = self.would_fail(site, *key)
        return rule.delay if rule is not None else 0.0


_active: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    """The currently installed injector, if any."""
    return _active


def install(plan: Union[FaultPlan, FaultInjector]) -> FaultInjector:
    """Install an injector process-wide; returns it (for uninstall)."""
    global _active
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    _active = injector
    return injector


def uninstall() -> None:
    """Remove the installed injector (no-op when none is installed)."""
    global _active
    _active = None


@contextmanager
def injected(plan: Union[FaultPlan, FaultInjector]) -> Iterator[FaultInjector]:
    """Scoped installation for tests: install on entry, restore on exit."""
    global _active
    previous = _active
    injector = install(plan)
    try:
        yield injector
    finally:
        _active = previous


def maybe_fail(site: str, *key) -> None:
    """The one-line site hook: no-op unless an injector is installed."""
    injector = _active
    if injector is not None:
        injector.check(site, *key)


def maybe_corrupt(data: bytes, *key) -> bytes:
    """The ``store.corrupt`` hook: identity unless an injector fires."""
    injector = _active
    if injector is not None:
        return injector.corrupt_bytes(data, *key)
    return data


def maybe_delay(site: str, *key) -> None:
    """The delaying-site hook: sleeps when the seeded verdict fires."""
    injector = _active
    if injector is not None:
        seconds = injector.delay_seconds(site, *key)
        if seconds > 0.0:
            time.sleep(seconds)


def maybe_crash(*key) -> None:
    """The ``worker.crash`` hook: kill this process when the verdict fires.

    Calls ``os._exit`` — no cleanup, no exception, exactly how a
    SIGKILL'd or OOM-killed pool worker disappears.  Only ever called
    from sacrificial process-pool workers
    (:func:`repro.core.tasks._process_chunk`); the verdict is pure in
    ``(seed, key)`` like every other site, so which tasks take their
    worker down is byte-reproducible.
    """
    injector = _active
    if injector is not None and injector.would_fail(
        "worker.crash", *key
    ) is not None:
        os._exit(WORKER_CRASH_EXIT)
