"""Fidelity scoring: a study run vs the paper's published numbers.

``score_study`` walks every paper-anchored quantity the pipeline measures,
rescales the measured value back to paper units, and emits one
:class:`FidelityRow` per quantity with its relative deviation.  It is the
programmatic form of EXPERIMENTS.md: the regeneration script renders its
output, CI-style tests assert its aggregate, and users get a one-call
answer to "how close is my run to the paper?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.attacks.plan import (
    PAPER_HONEYPOT_EVENTS,
    PAPER_HONEYPOT_SOURCES,
    PAPER_INFECTED_SPLIT,
    PAPER_MULTISTAGE_ATTACKS,
)
from repro.core.study import StudyResults
from repro.core.taxonomy import MISCONFIG_LABELS, Misconfig
from repro.internet.population import (
    PAPER_EXPOSED_ZMAP,
    PAPER_MISCONFIG_COUNTS,
)
from repro.internet.wild_honeypots import WILD_HONEYPOT_CATALOG
from repro.protocols.base import ProtocolId
from repro.telescope.telescope import PAPER_TELESCOPE

__all__ = ["FidelityRow", "FidelityReport", "score_study"]


@dataclass
class FidelityRow:
    """One compared quantity."""

    experiment: str     # "T4", "T5", ... the DESIGN.md experiment id
    quantity: str
    paper: float
    measured: float     # rescaled to paper units
    #: the paper count is below the scale divisor, so the min-count floor
    #: (not the pipeline) determined the measured value — excluded from
    #: aggregate error statistics by default.
    floor_dominated: bool = False

    @property
    def relative_error(self) -> float:
        """|measured - paper| / paper (0 for a zero-paper row)."""
        if self.paper == 0:
            return 0.0 if self.measured == 0 else float("inf")
        return abs(self.measured - self.paper) / self.paper


@dataclass
class FidelityReport:
    """All compared quantities plus aggregates."""

    rows: List[FidelityRow] = field(default_factory=list)

    def add(self, experiment: str, quantity: str, paper: float,
            measured: float, *, scale: float = 1.0) -> None:
        """Record one comparison; ``scale`` marks floor-dominated rows."""
        self.rows.append(FidelityRow(
            experiment, quantity, paper, measured,
            floor_dominated=0 < paper < scale,
        ))

    def for_experiment(self, experiment: str) -> List[FidelityRow]:
        """Rows of one experiment id."""
        return [row for row in self.rows if row.experiment == experiment]

    def worst(self, k: int = 5) -> List[FidelityRow]:
        """The k largest relative errors."""
        return sorted(self.rows, key=lambda row: -row.relative_error)[:k]

    def max_relative_error(
        self, experiment: Optional[str] = None, *,
        include_floor_dominated: bool = False,
    ) -> float:
        """Largest relative error, optionally within one experiment."""
        rows = self.for_experiment(experiment) if experiment else self.rows
        if not include_floor_dominated:
            rows = [row for row in rows if not row.floor_dominated]
        return max((row.relative_error for row in rows), default=0.0)

    def mean_relative_error(
        self, *, include_floor_dominated: bool = False
    ) -> float:
        """Mean relative error (floor-dominated rows excluded by default)."""
        rows = (self.rows if include_floor_dominated
                else [row for row in self.rows if not row.floor_dominated])
        if not rows:
            return 0.0
        return sum(row.relative_error for row in rows) / len(rows)

    def render(self) -> str:
        """Monospace table of every comparison."""
        lines = [
            f"{'exp':<5} {'quantity':<44} {'paper':>14} {'measured':>14} "
            f"{'err':>7}"
        ]
        for row in self.rows:
            note = " (floor)" if row.floor_dominated else ""
            lines.append(
                f"{row.experiment:<5} {row.quantity:<44.44} "
                f"{row.paper:>14,.0f} {row.measured:>14,.0f} "
                f"{100 * row.relative_error:>6.1f}%{note}"
            )
        lines.append(
            f"mean relative error: {100 * self.mean_relative_error():.2f}%"
        )
        return "\n".join(lines)


def score_study(results: StudyResults) -> FidelityReport:
    """Compare one finished run against every paper-anchored number."""
    report = FidelityReport()
    population_scale = results.config.population.scale
    honeypot_scale = results.config.population.honeypot_scale
    attack_scale = results.config.attacks.attack_scale

    # T4 — exposed hosts (ZMap column).
    if results.zmap_db is not None:
        counts = results.zmap_db.counts_by_protocol()
        for protocol, paper in PAPER_EXPOSED_ZMAP.items():
            report.add("T4", f"exposed {protocol}", paper,
                       counts.get(protocol, 0) * population_scale,
                       scale=population_scale)

    # T5 — misconfigured devices.
    if results.misconfig is not None:
        for label, paper in PAPER_MISCONFIG_COUNTS.items():
            report.add(
                "T5", f"{label}", paper,
                results.misconfig.count(label) * population_scale,
                scale=population_scale,
            )
        report.add("T5", "total misconfigured", 1_832_893,
                   results.misconfig.total * population_scale)

    # T6 — detected honeypots.
    if results.fingerprints is not None:
        for kind in WILD_HONEYPOT_CATALOG:
            report.add("T6", f"honeypot {kind.name}", kind.paper_count,
                       results.fingerprints.count(kind.name) * honeypot_scale,
                       scale=honeypot_scale)
        report.add("T6", "total honeypots", 8_192,
                   results.fingerprints.total * honeypot_scale)

    # T7 — attack events and source splits.
    if results.schedule is not None:
        counts = results.schedule.log.count_by_honeypot_protocol()
        for (name, protocol), paper in PAPER_HONEYPOT_EVENTS.items():
            if protocol == ProtocolId.MODBUS:
                continue  # fitted estimate, not a published row
            report.add(
                "T7", f"{name}/{protocol} events", paper,
                counts.get((name, str(protocol)), 0) * attack_scale,
                scale=attack_scale,
            )
        for name, split in PAPER_HONEYPOT_SOURCES.items():
            measured = results.honeypot_source_split(name)
            for label, paper, got in zip(
                ("scanning", "malicious", "unknown"), split, measured
            ):
                report.add("T7", f"{name} {label} sources", paper,
                           got * attack_scale, scale=attack_scale)

    # T8 — telescope daily volumes (packet scale is uniform).
    if results.telescope is not None:
        for protocol, (daily_avg, _, _) in PAPER_TELESCOPE.items():
            report.add(
                "T8", f"telescope {protocol} pkts/day", daily_avg,
                results.telescope.daily_average_rescaled(protocol),
            )

    # F9 — multistage attacks.
    if results.multistage is not None:
        report.add("F9", "multistage attacks", PAPER_MULTISTAGE_ATTACKS,
                   results.multistage.total * attack_scale,
                   scale=attack_scale)

    # §5.3 — the intersection.
    if results.infected is not None:
        infected = results.infected
        report.add("S5.3", "infected misconfigured total", 11_118,
                   infected.total_infected_misconfigured * attack_scale)
        for label, paper, got in (
            ("honeypots only", PAPER_INFECTED_SPLIT[0],
             len(infected.honeypot_only)),
            ("telescope only", PAPER_INFECTED_SPLIT[1],
             len(infected.telescope_only)),
            ("both", PAPER_INFECTED_SPLIT[2], len(infected.both)),
        ):
            report.add("S5.3", f"infected {label}", paper,
                       got * attack_scale, scale=attack_scale)
        report.add("S5.3", "censys extension", 1_671,
                   infected.total_censys_extension * attack_scale,
                   scale=attack_scale)
        report.add("S5.3", "registered domains", 797,
                   len(infected.registered_domains) * attack_scale,
                   scale=attack_scale)
    return report
