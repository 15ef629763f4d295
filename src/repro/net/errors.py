"""Exception hierarchy for the :mod:`repro` networking substrate.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AddressError(ReproError, ValueError):
    """An IPv4 address or CIDR block could not be parsed or is invalid."""


class AllocationError(ReproError):
    """The address allocator ran out of space in the requested pool."""


class ProtocolError(ReproError):
    """A protocol message could not be encoded or decoded."""


class ConnectionRefused(ReproError):
    """A simulated TCP connection attempt was refused (no listener)."""


class HostUnreachable(ReproError):
    """The destination address is not present in the simulated Internet."""


class ScanError(ReproError):
    """A scanning campaign was misconfigured or failed."""


class ConfigError(ReproError, ValueError):
    """A study or component configuration is invalid."""


class PhaseOrderError(ReproError, RuntimeError):
    """A pipeline phase was requested before its prerequisites ran.

    Replaces the old ``assert results.X is not None, "run_Y first"`` guards
    in the study driver: unlike ``assert``, this survives ``python -O``, and
    it carries the missing artifacts so callers (and the CLI) can report
    exactly which phase to run.
    """

    def __init__(self, message: str, *, missing=()) -> None:
        super().__init__(message)
        #: Artifact names that were required but not yet materialized.
        self.missing = tuple(missing)


class EngineError(ReproError):
    """The phase graph itself is malformed (cycle, duplicate provider)."""


class FaultError(ReproError):
    """An injected fault fired at a named injection site.

    Raised only when a :class:`~repro.core.faults.FaultInjector` is
    installed; production runs without ``--inject-faults`` never see one.
    ``site`` names the injection site and ``key`` identifies the exact
    decision, so a failure report pinpoints the seeded draw that fired.
    """

    #: Whether a supervised retry may clear this fault.
    transient = False

    def __init__(self, message: str, *, site: str = "", key=()) -> None:
        super().__init__(message)
        self.site = site
        self.key = tuple(key)


class TransientFaultError(FaultError):
    """A retryable injected fault (packet loss, rate-limited peer, EINTR).

    The supervised task executor retries these up to ``retries`` times;
    the verdict is keyed on the attempt number, so a retry draws a fresh,
    independent fate — exactly like the fabric's keyed probe loss.
    """

    transient = True


class FatalFaultError(FaultError):
    """A non-retryable injected fault (corrupt input, dead vantage)."""


class EnvelopeError(ReproError):
    """A stored artifact envelope failed verification on read.

    Raised by :func:`repro.core.integrity.unwrap_envelope` when a
    journal/cache blob is damaged (checksum or structural corruption) or
    stale (schema, key or config-fingerprint mismatch).  ``reason`` is a
    stable machine-readable token (``"checksum-mismatch"``,
    ``"bad-magic"``, ``"stale-fingerprint"``, …) recorded verbatim in the
    :class:`~repro.core.integrity.QuarantineRecord` of the entry that is
    moved aside.
    """

    def __init__(self, message: str, *, reason: str = "malformed") -> None:
        super().__init__(message)
        #: Stable token naming what failed verification.
        self.reason = reason


class TaskDeadlineError(TransientFaultError):
    """A supervised task overran its hard deadline.

    Transient by design: a stalled task (lock convoy, cold page cache, a
    peer that finally timed out) usually completes normally when re-run,
    and every supervised task is a pure function of its derived PRNG key,
    so the retry is byte-identical to an undisturbed first attempt.  Flows
    through the ordinary ``--retries`` path; with retries exhausted it
    surfaces as a :class:`TaskFailure` naming the task (CLI exit code 4).
    """

    def __init__(
        self, message: str, *, site: str = "deadline", key=(),
        seconds: float = 0.0, limit: float = 0.0,
    ) -> None:
        super().__init__(message, site=site, key=key)
        #: Observed task wall time.
        self.seconds = seconds
        #: The hard deadline that was overrun.
        self.limit = limit


class ValidationError(ReproError):
    """A cross-plane structural invariant over finished artifacts failed.

    Raised (or collected, in the CLI's report mode) by
    :mod:`repro.core.validate`; the CLI maps it to exit code 5.
    """


class TaskFailure(ReproError):
    """A supervised task failed; names the task and preserves the cause.

    Replaces the bare exception the old ``run_tasks`` let escape: callers
    now learn *which* ``(plane, unit, day/shard)`` task died and after how
    many attempts, and outstanding sibling tasks are cancelled instead of
    running to completion behind the error.
    """

    def __init__(self, ref, cause: BaseException, *, attempts: int = 1) -> None:
        super().__init__(
            f"task {ref.key()} failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )
        #: The failing task's :class:`~repro.core.tasks.TaskRef`.
        self.ref = ref
        #: The underlying exception (also chained as ``__cause__``).
        self.cause = cause
        #: Execution attempts made before giving up.
        self.attempts = attempts

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__``, whose signature wants (ref, cause);
        # rebuild from the structured fields instead so a failure raised
        # inside a process-pool worker crosses the pipe intact.
        return (_rebuild_task_failure, (self.ref, self.cause, self.attempts))


def _rebuild_task_failure(ref, cause, attempts):
    return TaskFailure(ref, cause, attempts=attempts)


class ServeError(ReproError):
    """The streaming campaign service or its control surface failed.

    Raised by :mod:`repro.stream` for lifecycle misuse (feeding a
    finalized operator, starting a campaign twice) and by ``repro serve``
    for bind/startup failures; the CLI maps it to exit code 6.
    """


class ServiceBusyError(ServeError):
    """The control server is at its campaign limit; retry later.

    Raised by ``start_campaign`` when ``max_campaigns`` active campaigns
    already exist; the HTTP surface maps it to ``503`` with a
    ``Retry-After`` header of :attr:`retry_after` seconds.
    """

    def __init__(self, message: str, *, retry_after: float = 30.0) -> None:
        super().__init__(message)
        #: Suggested client back-off in seconds (the Retry-After header).
        self.retry_after = retry_after


class CursorLagError(ServeError):
    """A ring-buffer cursor points at evicted items.

    Raised by :meth:`repro.stream.bus.RingBuffer.tail` when a reader's
    cursor has fallen behind the bounded buffer's retention window —
    silently skipping the evicted items would let a tail client miss
    events without ever learning it did.  ``oldest`` is the oldest
    sequence number still retained (resume from there) and ``dropped``
    is how many items the reader missed.
    """

    def __init__(
        self, message: str, *, oldest: int = 0, dropped: int = 0,
    ) -> None:
        super().__init__(message)
        #: Oldest retained sequence number — the cursor to resume from.
        self.oldest = oldest
        #: Items evicted between the stale cursor and ``oldest``.
        self.dropped = dropped
