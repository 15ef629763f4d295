"""Cross-plane structural invariants over finished study artifacts.

Checksummed envelopes (:mod:`repro.core.integrity`) prove an artifact
survived *storage*; this module proves the artifacts still satisfy the
*structural* contracts the analysis stage silently depends on — the
referential consistency a real measurement pipeline audits before
publishing numbers.  Each :class:`Invariant` names the artifacts it needs
and the measurement plane it belongs to; :func:`run_validation` asks the
engine to :meth:`~repro.core.engine.StudyEngine.ensure` exactly those
artifacts, so invariants reuse the phase DAG and run per-plane as soon as
that plane's artifacts exist — scan invariants never wait for the attack
month, and a cached artifact is validated without recomputation.

The default registry checks:

* ``scan.canonical-order`` — the ZMap database is in strictly increasing
  canonical ``(address, port, protocol)`` order (the sharded merge
  contract; also implies no duplicate probe results);
* ``scan.merge-dedup`` — the merged multi-vantage database has no
  duplicate ``(address, port, protocol)`` triples and covers our scan;
* ``attacks.sources-registered`` — every EventStore source IP lies in the
  simulated population space: a registered actor with a valid IPv4;
* ``attacks.honeypot-counts`` — the per-honeypot filter counts behind the
  report tables agree with a full recount of the log, and every event day
  falls inside the attack month;
* ``telescope.flow-days`` — every flowtuple lands within the campaign
  window, and the writer's day files agree with its records;
* ``analysis.misconfig-consistent`` — misconfigured devices exclude
  fingerprinted honeypots and are drawn from scanned hosts;
* ``stream.snapshots_match_batch`` — fresh online operators
  (:mod:`repro.stream.operators`) fed the plane stores in uneven chunks
  produce the same snapshots as twins fed each store once, which is
  what the batch analyses are (the operators' chunk invariance).

The CLI's ``repro validate`` subcommand runs the registry and maps any
violation to exit code 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.scanner.records import ScanDatabase

__all__ = [
    "Violation",
    "Invariant",
    "InvariantRegistry",
    "default_registry",
    "run_validation",
]


@dataclass(frozen=True)
class Violation:
    """One failed structural invariant, with a human-readable message."""

    invariant: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        return {"invariant": self.invariant, "message": self.message}


@dataclass(frozen=True)
class Invariant:
    """One structural contract over materialized artifacts.

    ``check`` receives the engine (artifacts already ensured) and returns
    violation messages — empty when the invariant holds.
    """

    name: str
    #: Measurement plane bucket (``scan``, ``attacks``, ``telescope``,
    #: ``analysis``) — validation order groups by plane.
    plane: str
    #: Artifact names :func:`run_validation` ensures before ``check``.
    requires: Tuple[str, ...]
    check: Callable[[object], List[str]]


class InvariantRegistry:
    """Ordered collection of invariants, grouped by plane."""

    def __init__(self) -> None:
        self._invariants: List[Invariant] = []

    def register(self, invariant: Invariant) -> None:
        if any(inv.name == invariant.name for inv in self._invariants):
            raise ValueError(
                f"invariant {invariant.name!r} registered twice"
            )
        self._invariants.append(invariant)

    def invariants(self) -> List[Invariant]:
        """Registration order — registries register plane-by-plane, so a
        plane's invariants run as soon as its artifacts exist."""
        return list(self._invariants)

    def __len__(self) -> int:
        return len(self._invariants)


# ---------------------------------------------------------------------------
# Default invariants
# ---------------------------------------------------------------------------

_IPV4_SPACE = 1 << 32


def _check_scan_canonical(engine) -> List[str]:
    database = engine.artifact("zmap_db")
    previous = None
    for index, row in enumerate(database.iter_rows()):
        triple = ScanDatabase.canonical_key(row)
        if previous is not None and triple <= previous:
            return [
                f"row {index} {triple!r} breaks canonical "
                f"(address, port, protocol) order after {previous!r}"
            ]
        previous = triple
    return []


def _check_merge_dedup(engine) -> List[str]:
    merged = engine.artifact("merged_db")
    zmap = engine.artifact("zmap_db")
    problems: List[str] = []
    seen = set()
    for row in merged.iter_rows():
        triple = (row.address, row.port, row.protocol)
        if triple in seen:
            problems.append(
                f"duplicate (address, port, protocol) triple {triple!r} "
                "survived the multi-vantage merge"
            )
            break
        seen.add(triple)
    missing = len(zmap.unique_hosts() - merged.unique_hosts())
    if missing:
        problems.append(
            f"{missing} host(s) from our own scan are absent from the "
            "merged database (merge must be a superset)"
        )
    return problems


def _check_attack_sources(engine) -> List[str]:
    schedule = engine.artifact("schedule")
    registry = schedule.registry
    for source in set(schedule.log.column("source")):
        if not 0 < source < _IPV4_SPACE:
            return [
                f"event source {source} is outside the IPv4 address space"
            ]
        if registry.get(source) is None:
            return [
                f"event source {source} is not a registered actor — "
                "attack events must come from the simulated population"
            ]
    return []


def _check_honeypot_counts(engine) -> List[str]:
    schedule = engine.artifact("schedule")
    config = engine.config
    log = schedule.log
    problems: List[str] = []
    recount: Dict[str, int] = {}
    for name in log.column("honeypot"):
        recount[name] = recount.get(name, 0) + 1
    for name, expected in sorted(recount.items()):
        filtered = len(log.by_honeypot(name))
        if filtered != expected:
            problems.append(
                f"honeypot filter {name!r} returns {filtered} events but "
                f"a full recount finds {expected} — the report "
                "tables would disagree with the log"
            )
    if sum(recount.values()) != len(log):
        problems.append(
            f"per-honeypot counts sum to {sum(recount.values())} but the "
            f"log holds {len(log)} events"
        )
    days = config.attacks.days
    bad_days = [day for day in set(log.column("day"))
                if not 0 <= day < days]
    if bad_days:
        problems.append(
            f"event day(s) {sorted(bad_days)} fall outside the "
            f"{days}-day attack month"
        )
    return problems


def _check_telescope_days(engine) -> List[str]:
    capture = engine.artifact("telescope")
    days = engine.config.telescope.days
    writer_days = capture.writer.days()
    bad = [day for day in writer_days if not 0 <= day < days]
    if bad:
        return [
            f"flowtuple day file(s) {bad} fall outside the "
            f"{days}-day campaign window"
        ]
    return []


def _check_misconfig(engine) -> List[str]:
    misconfig = engine.artifact("misconfig")
    fingerprints = engine.artifact("fingerprints")
    merged = engine.artifact("merged_db")
    problems: List[str] = []
    flagged = misconfig.all_addresses()
    honeypots = flagged & fingerprints.addresses()
    if honeypots:
        problems.append(
            f"{len(honeypots)} fingerprinted honeypot(s) were classified "
            "as misconfigured devices — the honeypot filter must exclude "
            "them"
        )
    unscanned = flagged - merged.unique_hosts()
    if unscanned:
        problems.append(
            f"{len(unscanned)} misconfigured address(es) never appear in "
            "the merged scan database"
        )
    return problems


def _check_stream_parity(engine) -> List[str]:
    """The streaming contract: chunk-fed operators == operators fed once.

    Replays the finished plane stores through a fresh stock operator set
    in deliberately uneven chunks (a prime size, so chunk boundaries
    land everywhere), then compares every snapshot digest with a twin
    fed the whole store at once — exactly what a live ``repro serve``
    campaign guarantees about its final snapshots.
    """
    from repro.stream.service import (
        default_operators,
        plane_rows,
        snapshots_match_batch,
    )

    results = _StreamArtifacts(engine)
    operators = default_operators(results)
    for plane in ("scan", "attacks", "telescope"):
        fed = [operator for operator in operators if operator.plane == plane]
        rows = list(plane_rows(results, plane))
        for start in range(0, len(rows), 97):
            chunk = rows[start:start + 97]
            for operator in fed:
                operator.feed(chunk)
    return snapshots_match_batch(
        results, {operator.name: operator for operator in operators}
    )


class _StreamArtifacts:
    """Adapter giving :func:`snapshots_match_batch` its results view."""

    _FIELDS = ("merged_db", "fingerprints", "schedule", "telescope",
               "exonerator", "geo")

    def __init__(self, engine) -> None:
        for name in self._FIELDS:
            setattr(self, name, engine.artifact(name))


def default_registry() -> InvariantRegistry:
    """The stock invariants, registered plane-by-plane in pipeline order."""
    registry = InvariantRegistry()
    registry.register(Invariant(
        name="scan.canonical-order", plane="scan",
        requires=("zmap_db",), check=_check_scan_canonical,
    ))
    registry.register(Invariant(
        name="scan.merge-dedup", plane="scan",
        requires=("merged_db",), check=_check_merge_dedup,
    ))
    registry.register(Invariant(
        name="attacks.sources-registered", plane="attacks",
        requires=("schedule",), check=_check_attack_sources,
    ))
    registry.register(Invariant(
        name="attacks.honeypot-counts", plane="attacks",
        requires=("schedule",), check=_check_honeypot_counts,
    ))
    registry.register(Invariant(
        name="telescope.flow-days", plane="telescope",
        requires=("telescope",), check=_check_telescope_days,
    ))
    registry.register(Invariant(
        name="analysis.misconfig-consistent", plane="analysis",
        requires=("misconfig", "fingerprints", "merged_db"),
        check=_check_misconfig,
    ))
    registry.register(Invariant(
        name="stream.snapshots_match_batch", plane="stream",
        requires=_StreamArtifacts._FIELDS,
        check=_check_stream_parity,
    ))
    return registry


def run_validation(
    engine, registry: Optional[InvariantRegistry] = None
) -> List[Violation]:
    """Run every invariant against (and through) a study engine.

    Artifacts are ensured invariant-by-invariant, so each plane's checks
    run as soon as the phase DAG can materialize that plane — and a
    violation in an early plane is reported even if a later plane's
    phases would fail outright.  Returns all violations, in registry
    order; an empty list means the artifacts are structurally sound.
    """
    registry = registry or default_registry()
    violations: List[Violation] = []
    for invariant in registry.invariants():
        engine.ensure(*invariant.requires)
        for message in invariant.check(engine):
            violations.append(Violation(invariant.name, message))
    return violations
