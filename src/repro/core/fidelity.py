"""Paper claims: a study run vs the paper's published tables and figures.

Every EXPERIMENTS.md claim is declared once here, as an
:class:`~repro.core.validate.Invariant` of :func:`claim_registry`.  A
claim's name starts with its DESIGN.md experiment id (``T4.zmap-order``,
``F6.smb-top``, ``S5.3.values``), its ``plane`` is the measurement plane
of the artifacts it reads, and :func:`~repro.core.validate.run_validation`
(or ``Study.validate(claim_registry())``) ensures exactly those artifacts
before the check.  Claims come in three kinds:

* **value** claims (``<exp>.values``) — :func:`score_study`'s rows of one
  experiment, each within its tolerance: an explicit bound where the paper
  claim states one, else the aggregate 25% on rows the min-count floor
  does not dominate; ``ALL.values`` is the aggregate itself (mean < 5%,
  max < 25%);
* **rank** claims — an ordering the paper reports (who leads, who trails);
* **inequality** claims — a share or count above or below a stated line.

A violated claim's message gives the paper's statement and the measured
value.  ``repro validate`` runs only the structural
:func:`~repro.core.validate.default_registry`: some claims hold only at
paper scale.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.attacks.credentials import sample_credentials
from repro.attacks.plan import (
    PAPER_CENSYS_IOT_SPLIT,
    PAPER_HONEYPOT_EVENTS,
    PAPER_HONEYPOT_SOURCES,
    PAPER_INFECTED_SPLIT,
    PAPER_MULTISTAGE_ATTACKS,
    PAPER_REGISTERED_DOMAINS,
)
from repro.attacks.scanning_services import SCANNING_SERVICES
from repro.core.study import StudyResults
from repro.core.taxonomy import AttackType, Misconfig, TrafficClass
from repro.core.validate import Invariant, InvariantRegistry
from repro.honeypots.deployment import HONEYPOT_NAMES
from repro.internet.devices import DEVICE_PROFILES
from repro.internet.population import (
    PAPER_EXPOSED_ZMAP,
    PAPER_MISCONFIG_COUNTS,
    PAPER_TOTAL_MISCONFIGURED,
)
from repro.internet.wild_honeypots import (
    PAPER_TOTAL_WILD_HONEYPOTS,
    WILD_HONEYPOT_CATALOG,
)
from repro.net.prng import RandomStream
from repro.protocols.base import ProtocolId
from repro.scanner.datasets import SONAR_COVERAGE
from repro.scanner.rate import ScanRateModel
from repro.scanner.zmap import SCAN_START_DAY
from repro.telescope.telescope import PAPER_TELESCOPE

__all__ = ["FidelityRow", "FidelityReport", "score_study", "claim_registry"]

#: The aggregate claim: mean and max relative error over non-floor rows.
MEAN_RELATIVE_ERROR = 0.05
MAX_RELATIVE_ERROR = 0.25


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
    #: largest |measured - paper| the row's claim accepts; ``None`` holds
    #: a non-floor row to the aggregate ``MAX_RELATIVE_ERROR``.
    bound: Optional[float] = None

    @property
    def relative_error(self) -> float:
        """|measured - paper| / paper (0 for a zero-paper row)."""
        if self.paper == 0:
            return 0.0 if self.measured == 0 else float("inf")
        return abs(self.measured - self.paper) / self.paper

    @property
    def holds(self) -> bool:
        """Whether the row is within its claim's tolerance."""
        if self.bound is not None:
            return abs(self.measured - self.paper) <= self.bound
        return self.floor_dominated or self.relative_error < MAX_RELATIVE_ERROR


@dataclass
class FidelityReport:
    """All compared quantities plus aggregates."""

    rows: List[FidelityRow] = field(default_factory=list)

    def add(self, experiment: str, quantity: str, paper: float,
            measured: float, *, scale: float = 1.0,
            bound: Optional[float] = None) -> None:
        """Record one comparison; ``scale`` marks floor-dominated rows."""
        self.rows.append(FidelityRow(
            experiment, quantity, paper, measured,
            floor_dominated=0 < paper < scale, bound=bound,
        ))

    def for_experiment(self, experiment: str) -> List[FidelityRow]:
        """Rows of one experiment id."""
        return [row for row in self.rows if row.experiment == experiment]

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


# ---------------------------------------------------------------------------
# Value rows, one scorer per experiment
# ---------------------------------------------------------------------------

def _score_exposed(results: StudyResults, report: FidelityReport) -> None:
    """T4 — exposed hosts (ZMap column)."""
    scale = results.config.population.scale
    counts = results.zmap_db.counts_by_protocol()
    for protocol, paper in PAPER_EXPOSED_ZMAP.items():
        report.add("T4", f"exposed {protocol}", paper,
                   counts.get(protocol, 0) * scale, scale=scale)


def _score_misconfig(results: StudyResults, report: FidelityReport) -> None:
    """T5 — misconfigured devices."""
    scale = results.config.population.scale
    misconfig = results.misconfig
    for label, paper in PAPER_MISCONFIG_COUNTS.items():
        report.add("T5", f"{label}", paper, misconfig.count(label) * scale,
                   scale=scale)
    report.add("T5", "total misconfigured", PAPER_TOTAL_MISCONFIGURED,
               misconfig.total * scale)


def _score_honeypots(results: StudyResults, report: FidelityReport) -> None:
    """T6 — detected honeypots."""
    scale = results.config.population.honeypot_scale
    fingerprints = results.fingerprints
    for kind in WILD_HONEYPOT_CATALOG:
        report.add("T6", f"honeypot {kind.name}", kind.paper_count,
                   fingerprints.count(kind.name) * scale, scale=scale)
    report.add("T6", "total honeypots", PAPER_TOTAL_WILD_HONEYPOTS,
               fingerprints.total * scale)


def _score_attacks(results: StudyResults, report: FidelityReport) -> None:
    """T7 — attack events (each within max(10 × scale, 20%)) and source
    splits."""
    scale = results.config.attacks.attack_scale
    counts = results.schedule.log.count_by_honeypot_protocol()
    for (name, protocol), paper in PAPER_HONEYPOT_EVENTS.items():
        if protocol == ProtocolId.MODBUS:
            continue  # fitted estimate, not a published row
        report.add(
            "T7", f"{name}/{protocol} events", paper,
            counts.get((name, str(protocol)), 0) * scale,
            scale=scale, bound=max(10 * scale, 0.2 * paper),
        )
    for name, split in PAPER_HONEYPOT_SOURCES.items():
        measured = results.honeypot_source_split(name)
        for label, paper, got in zip(
            ("scanning", "malicious", "unknown"), split, measured
        ):
            report.add("T7", f"{name} {label} sources", paper,
                       got * scale, scale=scale)


def _score_telescope(results: StudyResults, report: FidelityReport) -> None:
    """T8 — telescope daily volumes (packet scale is uniform)."""
    for protocol, (daily_avg, _, _) in PAPER_TELESCOPE.items():
        report.add(
            "T8", f"telescope {protocol} pkts/day", daily_avg,
            results.telescope.daily_average_rescaled(protocol),
        )


def _score_multistage(results: StudyResults, report: FidelityReport) -> None:
    """F9 — multistage attacks, within max(2 × scale, 40%)."""
    scale = results.config.attacks.attack_scale
    report.add("F9", "multistage attacks", PAPER_MULTISTAGE_ATTACKS,
               results.multistage.total * scale, scale=scale,
               bound=max(2 * scale, 0.4 * PAPER_MULTISTAGE_ATTACKS))


def _score_intersection(results: StudyResults,
                        report: FidelityReport) -> None:
    """§5.3 — the intersection; the headline total within 15%."""
    scale = results.config.attacks.attack_scale
    infected = results.infected
    total = sum(PAPER_INFECTED_SPLIT)
    report.add("S5.3", "infected misconfigured total", total,
               infected.total_infected_misconfigured * scale,
               bound=0.15 * total)
    for label, paper, got in (
        ("honeypots only", PAPER_INFECTED_SPLIT[0],
         len(infected.honeypot_only)),
        ("telescope only", PAPER_INFECTED_SPLIT[1],
         len(infected.telescope_only)),
        ("both", PAPER_INFECTED_SPLIT[2], len(infected.both)),
    ):
        report.add("S5.3", f"infected {label}", paper, got * scale,
                   scale=scale)
    report.add("S5.3", "censys extension", sum(PAPER_CENSYS_IOT_SPLIT),
               infected.total_censys_extension * scale, scale=scale)
    report.add("S5.3", "registered domains", PAPER_REGISTERED_DOMAINS,
               len(infected.registered_domains) * scale, scale=scale)


#: (experiment, plane, artifact, scorer) in :func:`score_study` row order.
_SCORERS = (
    ("T4", "scan", "zmap_db", _score_exposed),
    ("T5", "analysis", "misconfig", _score_misconfig),
    ("T6", "analysis", "fingerprints", _score_honeypots),
    ("T7", "attacks", "schedule", _score_attacks),
    ("T8", "telescope", "telescope", _score_telescope),
    ("F9", "attacks", "multistage", _score_multistage),
    ("S5.3", "analysis", "infected", _score_intersection),
)


def score_study(results: StudyResults) -> FidelityReport:
    """Compare one finished run against every paper-anchored number."""
    report = FidelityReport()
    for _, _, artifact, score in _SCORERS:
        if getattr(results, artifact) is not None:
            score(results, report)
    return report


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------

_CLAIMS: List[Invariant] = []


def _on_results(check):
    """An invariant check running ``check`` over the engine's results."""
    return lambda engine: check(StudyResults.from_engine(engine))


def _declare(name: str, plane: str, *requires: str):
    """Register the decorated ``check(results) -> messages`` as a claim."""
    def register(check):
        _CLAIMS.append(Invariant(name=name, plane=plane, requires=requires,
                                 check=_on_results(check)))
        return check
    return register


def _expect(holds: bool, paper: str, measured: str) -> List[str]:
    """No message when the claim holds, else one naming both sides."""
    return [] if holds else [f"paper: {paper}; measured: {measured}"]


def _value_check(score):
    """The rows of one scorer that break their tolerance."""
    def check(results: StudyResults) -> List[str]:
        report = FidelityReport()
        score(results, report)
        problems = []
        for row in report.rows:
            if row.holds:
                continue
            allowed = (f"±{row.bound:,.0f}" if row.bound is not None
                       else f"<{100 * MAX_RELATIVE_ERROR:.0f}%")
            problems.append(
                f"{row.quantity}: paper {row.paper:,.0f}, measured "
                f"{row.measured:,.0f} ({100 * row.relative_error:.1f}% off, "
                f"allowed {allowed})"
            )
        return problems
    return check


# -- shared extractors -------------------------------------------------------

def _protocol_sources(results: StudyResults) -> Dict[str, set]:
    """Unique honeypot sources per protocol."""
    log = results.schedule.log
    return {name: log.unique_sources(protocol=ProtocolId(name))
            for name in log.count_by_protocol()}


def _vt_fractions(results: StudyResults) -> Dict[str, float]:
    """VirusTotal-flagged share of each protocol's sources: honeypot side
    ``"<protocol> (H)"``, telescope side ``"<protocol> (T)"`` (Figure 6)."""
    virustotal = results.virustotal
    fractions = {
        f"{name} (H)": virustotal.malicious_fraction(sources)
        for name, sources in _protocol_sources(results).items()
    }
    telescope = results.telescope
    for protocol in telescope.sources_by_protocol:
        fractions[f"{protocol} (T)"] = virustotal.malicious_fraction(
            telescope.suspicious_sources(protocol)
        )
    return fractions


def _greynoise_counts(results: StudyResults) -> Dict[str, Tuple[int, int]]:
    """(ours, GreyNoise) scanning-service source counts per protocol."""
    registry = results.schedule.registry
    counts = {}
    for name, sources in _protocol_sources(results).items():
        ours = sum(
            1 for address in sources
            if (info := registry.get(address)) is not None
            and info.traffic_class == TrafficClass.SCANNING_SERVICE
        )
        counts[name] = (ours, results.greynoise.count_benign(sources))
    return counts


def _attack_mix(results: StudyResults,
                by: str) -> Dict[str, Dict[AttackType, float]]:
    """Attack-type shares of the event log per ``honeypot`` or per
    ``protocol`` (Figures 4 and 7)."""
    log = results.schedule.log
    counts: Dict[str, Counter] = {}
    for key, kind in zip(log.column(by), log.column("attack_type")):
        counts.setdefault(str(key), Counter())[kind] += 1
    mixes = {}
    for key, counter in counts.items():
        total = sum(counter.values())
        mixes[key] = {kind: count / total for kind, count in counter.items()}
    return mixes


def _rdns_attribution(results: StudyResults) -> Dict[str, Counter]:
    """Scanning-service sources per honeypot, attributed by rDNS domain."""
    schedule = results.schedule
    attribution = {}
    for honeypot in HONEYPOT_NAMES:
        counts = Counter()
        for address in schedule.log.unique_sources(honeypot=honeypot):
            domain = schedule.rdns.lookup(address)
            if not domain:
                continue
            for service in SCANNING_SERVICES:
                if domain.endswith(service.rdns_domain):
                    counts[service.name] += 1
                    break
        attribution[honeypot] = counts
    return attribution


def _credential_sample(results: StudyResults) -> Tuple[Counter, Counter]:
    """(Telnet, SSH) credential histograms: one draw from the Table 12
    corpus (stream ``bench.creds``) per brute-force or dictionary event
    on Telnet or SSH.  The log keeps request sizes, not payload bytes, so
    this checks the corpus sampler, not the honeypots' transcripts."""
    log = results.schedule.log
    stream = RandomStream(results.config.seed, "bench.creds")
    attempts = sum(
        1 for protocol, kind in zip(log.column("protocol"),
                                    log.column("attack_type"))
        if str(protocol) in ("ssh", "telnet")
        and kind in (AttackType.BRUTE_FORCE, AttackType.DICTIONARY)
    )
    telnet = Counter(sample_credentials(ProtocolId.TELNET, stream, attempts))
    ssh = Counter(sample_credentials(ProtocolId.SSH, stream, attempts))
    return telnet, ssh


# -- scan plane --------------------------------------------------------------

@_declare("T4.zmap-order", "scan", "zmap_db")
def _zmap_order(results):
    counts = results.zmap_db.counts_by_protocol()
    ordered = sorted(PAPER_EXPOSED_ZMAP, key=PAPER_EXPOSED_ZMAP.get)
    values = [counts.get(protocol, 0) for protocol in ordered]
    return _expect(
        values == sorted(values),
        f"ZMap counts ascend {', '.join(map(str, ordered))}",
        ", ".join(f"{p} {v}" for p, v in zip(ordered, values)),
    )


@_declare("T4.sonar-trails", "scan", "zmap_db", "sonar_db")
def _sonar_trails(results):
    zmap = results.zmap_db.counts_by_protocol()
    sonar = results.sonar_db.counts_by_protocol()
    ahead = [f"{p} sonar {sonar.get(p, 0)} > zmap {zmap.get(p, 0)}"
             for p in SONAR_COVERAGE if sonar.get(p, 0) > zmap.get(p, 0)]
    return _expect(not ahead, "Sonar finds no more hosts than ZMap",
                   "; ".join(ahead))


@_declare("T4.shodan-telnet", "scan", "zmap_db", "shodan_db")
def _shodan_telnet(results):
    zmap = results.zmap_db.counts_by_protocol()[ProtocolId.TELNET]
    shodan = results.shodan_db.counts_by_protocol()[ProtocolId.TELNET]
    return _expect(shodan < 0.1 * zmap,
                   "Shodan sees < 10% of ZMap's Telnet hosts",
                   f"shodan {shodan}, zmap {zmap}")


@_declare("T9.calendar", "scan")
def _calendar(results):
    model = ScanRateModel(probe_rate=300_000)
    plans = model.plan_campaign()
    order = [str(plan.protocol) for plan in plans]
    days = model.campaign_days()
    return _expect(
        plans[0].protocol == ProtocolId.COAP
        and plans[-1].protocol == ProtocolId.XMPP and days < 7.0,
        "at 300 kpps CoAP starts first, XMPP last, within one week",
        f"order {', '.join(order)}, {days:.1f} days",
    )


@_declare("T9.record-days", "scan", "zmap_db")
def _record_days(results):
    problems = []
    for protocol, start_day in SCAN_START_DAY.items():
        records = results.zmap_db.where(protocol=protocol)
        first = records.row(0).timestamp if records else None
        if first != start_day * 86_400:
            problems.append(f"{protocol} first record at {first}")
    return _expect(not problems,
                   "records carry Table 9's per-protocol start days",
                   "; ".join(problems))


# -- analysis of the scan ----------------------------------------------------

@_declare("T5.order", "analysis", "misconfig")
def _misconfig_order(results):
    ordered = sorted(PAPER_MISCONFIG_COUNTS, key=PAPER_MISCONFIG_COUNTS.get)
    values = [results.misconfig.count(label) for label in ordered]
    return _expect(values == sorted(values),
                   "rows ascend in Table 5's order",
                   ", ".join(map(str, values)))


@_declare("T5.reflectors", "analysis", "misconfig")
def _reflectors(results):
    misconfig = results.misconfig
    share = (misconfig.count(Misconfig.UPNP_REFLECTOR)
             + misconfig.count(Misconfig.COAP_REFLECTOR)) / misconfig.total
    return _expect(share > 0.75,
                   "UPnP + CoAP reflectors > 75% of misconfigurations",
                   f"{share:.3f}")


@_declare("T6.exact", "analysis", "fingerprints", "population")
def _honeypots_exact(results):
    found = results.fingerprints.addresses()
    truth = {host.address for host in results.population.wild_honeypots}
    return _expect(found == truth,
                   "every deployed wild honeypot found, no false positive",
                   f"{len(truth - found)} missed, {len(found - truth)} "
                   "false positives")


@_declare("T6.all-products", "analysis", "fingerprints")
def _all_products(results):
    missing = [kind.name for kind in WILD_HONEYPOT_CATALOG
               if results.fingerprints.count(kind.name) < 1]
    return _expect(not missing, "all nine products detected",
                   f"missing {', '.join(missing)}")


@_declare("T6.top-two", "analysis", "fingerprints")
def _top_honeypots(results):
    top_two = sorted(results.fingerprints.rows(), key=lambda row: -row[1])[:2]
    names = {name for name, _ in top_two}
    return _expect(names == {"Anglerfish", "Cowrie"},
                   "Anglerfish and Cowrie lead", f"top two {top_two}")


@_declare("T10.us-top", "analysis", "countries", "geo")
def _us_top(results):
    countries = results.countries
    top = countries.rows(results.geo)[0][0]
    share = countries.share("US")
    return _expect(top == "USA" and 0.18 < share < 0.36,
                   "USA leads with 18-36% (27%)",
                   f"top {top}, US share {share:.3f}")


@_declare("T10.order", "analysis", "countries")
def _country_order(results):
    share = results.countries.share
    return _expect(
        share("CN") > share("JP") and share("RU") > share("FR"),
        "China > Japan and Russia > France",
        f"CN {share('CN'):.3f}, JP {share('JP'):.3f}, "
        f"RU {share('RU'):.3f}, FR {share('FR'):.3f}",
    )


@_declare("T11.catalog-types", "analysis", "device_types")
def _catalog_types(results):
    catalog = {profile.device_type for profile in DEVICE_PROFILES}
    found = {kind for table in results.device_types.counts.values()
             for kind in table}
    return _expect(found <= catalog,
                   "every identified type is a Table 11 catalog type",
                   f"unknown {sorted(found - catalog)}")


@_declare("F2.telnet-types", "analysis", "device_types")
def _telnet_types(results):
    telnet = results.device_types.percentages(ProtocolId.TELNET)
    share = telnet.get("Camera", 0) + telnet.get("DSL Modem", 0)
    return _expect(share > 50,
                   "cameras + DSL modems > 50% of Telnet identifications",
                   f"{share:.1f}%")


@_declare("F2.upnp-routers", "analysis", "device_types")
def _upnp_routers(results):
    share = results.device_types.percentages(ProtocolId.UPNP).get("Router", 0)
    return _expect(share > 30, "routers > 30% of UPnP identifications",
                   f"{share:.1f}%")


@_declare("F2.untypeable", "analysis", "device_types")
def _untypeable(results):
    typed = [str(p) for p in (ProtocolId.XMPP, ProtocolId.AMQP)
             if p in results.device_types.counts]
    return _expect(not typed, "XMPP and AMQP never type a device",
                   f"typed on {', '.join(typed)}")


@_declare("F2.telnet-upnp-lead", "analysis", "device_types")
def _identification_leaders(results):
    identified = {protocol: sum(table.values())
                  for protocol, table in results.device_types.counts.items()}
    top_two = sorted(identified, key=identified.get)[-2:]
    return _expect(set(top_two) == {ProtocolId.TELNET, ProtocolId.UPNP},
                   "Telnet and UPnP give the most identifications",
                   f"top two {', '.join(map(str, top_two))}")


# -- attack plane ------------------------------------------------------------

@_declare("T7.total-sources", "attacks", "schedule")
def _total_sources(results):
    scale = results.config.attacks.attack_scale
    paper = sum(sum(split) for split in PAPER_HONEYPOT_SOURCES.values())
    measured = len(results.schedule.log.unique_sources()) * scale
    return _expect(abs(measured - paper) < 0.25 * paper,
                   f"{paper:,} unique sources (within 25%)",
                   f"{measured:,}")


@_declare("T12.top-pairs", "attacks", "schedule")
def _top_credentials(results):
    telnet, ssh = _credential_sample(results)
    top_telnet = [pair for pair, _ in telnet.most_common(5)]
    top_ssh = ssh.most_common(1)[0][0]
    return _expect(
        top_telnet[0] == ("admin", "admin") and top_ssh == ("admin", "admin")
        and ("root", "root") in top_telnet,
        "admin/admin tops Telnet and SSH, root/root in Telnet's top five",
        f"telnet top five {top_telnet}, ssh top {top_ssh}",
    )


@_declare("T12.mirai-zyxel", "attacks", "schedule")
def _backdoor_credentials(results):
    telnet, ssh = _credential_sample(results)
    mirai = telnet.get(("root", "xc3511"), 0)
    zyxel = ssh.get(("zyfwp", "PrOw!aN_fXp"), 0)
    return _expect(mirai > 0 and zyxel > 0,
                   "Mirai's root/xc3511 and Zyxel's zyfwp backdoor drawn",
                   f"xc3511 {mirai}, zyfwp {zyxel}")


@_declare("T13.families", "attacks", "schedule", "virustotal")
def _malware_families(results):
    families = Counter(results.virustotal.lookup_hash(sha)
                       for sha in results.schedule.log.malware_hashes())
    return _expect(None not in families and "Mirai" in families,
                   "every dropped binary is a known family, Mirai among them",
                   f"{dict(families)}")


@_declare("F3.every-honeypot", "attacks", "schedule")
def _every_honeypot_scanned(results):
    unseen = [name for name, counts in _rdns_attribution(results).items()
              if not counts]
    return _expect(not unseen, "scanning services reach every honeypot",
                   f"none on {', '.join(unseen)}")


@_declare("F3.heavyweights", "attacks", "schedule")
def _heavyweights(results):
    total = Counter()
    for counts in _rdns_attribution(results).values():
        total.update(counts)
    top = [name for name, _ in total.most_common(6)]
    heavy = {"Stretchoid", "Censys", "Shodan", "Bitsight", "BinaryEdge",
             "Project Sonar", "ShadowServer"}
    return _expect(bool(heavy & set(top)),
                   "a heavyweight service among the top six",
                   f"top six {', '.join(top)}")


@_declare("F3.rdns-recall", "attacks", "schedule")
def _rdns_recall(results):
    truth = {
        info.address
        for info in results.schedule.registry.by_class(
            TrafficClass.SCANNING_SERVICE)
        if info.visits_honeypots
    }
    attributed = sum(sum(counts.values())
                     for counts in _rdns_attribution(results).values())
    return _expect(attributed >= 0.95 * len(truth),
                   "rDNS attributes >= 95% of the scanning population",
                   f"{attributed} of {len(truth)}")


@_declare("F4.upot-dos", "attacks", "schedule")
def _upot_dos(results):
    mix = _attack_mix(results, "honeypot")["U-Pot"]
    share = (mix.get(AttackType.DOS_FLOOD, 0)
             + mix.get(AttackType.REFLECTION, 0))
    return _expect(share > 0.4, "U-Pot traffic > 40% DoS-related",
                   f"{share:.3f}")


@_declare("F4.cowrie-auth", "attacks", "schedule")
def _cowrie_auth(results):
    mix = _attack_mix(results, "honeypot")["Cowrie"]
    share = sum(mix.get(kind, 0) for kind in (
        AttackType.BRUTE_FORCE, AttackType.DICTIONARY,
        AttackType.MALWARE_DROP))
    return _expect(share > 0.3,
                   "Cowrie > 30% brute force, dictionary and malware",
                   f"{share:.3f}")


@_declare("F4.dionaea-exploit", "attacks", "schedule")
def _dionaea_exploit(results):
    share = _attack_mix(results, "honeypot")["Dionaea"].get(
        AttackType.EXPLOIT, 0)
    return _expect(share > 0, "Dionaea (SMB) sees exploitation",
                   f"exploit share {share:.3f}")


@_declare("F4.thingpot-poisoning", "attacks", "schedule")
def _thingpot_poisoning(results):
    share = _attack_mix(results, "honeypot")["ThingPot"].get(
        AttackType.DATA_POISONING, 0)
    return _expect(share > 0, "ThingPot sees data poisoning",
                   f"poisoning share {share:.3f}")


@_declare("F5.no-overcount", "attacks", "schedule", "greynoise")
def _greynoise_misses_only(results):
    over = [f"{name} ours {ours} < greynoise {theirs}"
            for name, (ours, theirs) in _greynoise_counts(results).items()
            if ours < theirs]
    return _expect(not over,
                   "ours >= GreyNoise scanning sources on every protocol",
                   "; ".join(over))


@_declare("F5.gap", "attacks", "schedule", "greynoise")
def _greynoise_gap(results):
    counts = _greynoise_counts(results).values()
    ours = sum(count for count, _ in counts)
    theirs = sum(count for _, count in counts)
    return _expect(ours > theirs, "GreyNoise misses scanners (2,023)",
                   f"ours {ours}, greynoise {theirs}")


@_declare("F5.regional-gap", "attacks", "schedule", "greynoise")
def _regional_gap(results):
    counts = _greynoise_counts(results)

    def relative_gap(name):
        ours, theirs = counts.get(name, (0, 0))
        return (ours - theirs) / ours if ours else 0.0

    heavy = max(relative_gap(name) for name in ("telnet", "amqp", "mqtt"))
    return _expect(heavy >= relative_gap("upnp"),
                   "relative gap on Telnet/AMQP/MQTT >= UPnP's",
                   f"largest {heavy:.3f}, upnp {relative_gap('upnp'):.3f}")


@_declare("F7.udp-dos", "attacks", "schedule")
def _udp_dos(results):
    matrix = _attack_mix(results, "protocol")

    def dos(name):
        mix = matrix.get(name, {})
        return (mix.get(AttackType.DOS_FLOOD, 0)
                + mix.get(AttackType.REFLECTION, 0))

    udp = min(dos("coap"), dos("upnp"))
    tcp = max(dos("telnet"), dos("ssh"), dos("ftp"))
    return _expect(udp > tcp, "CoAP/UPnP carry more DoS than Telnet/SSH/FTP",
                   f"udp min {udp:.3f}, tcp max {tcp:.3f}")


@_declare("F7.malware-poisoning", "attacks", "schedule")
def _tcp_payloads(results):
    matrix = _attack_mix(results, "protocol")
    malware = matrix["telnet"].get(AttackType.MALWARE_DROP, 0)
    mqtt = matrix["mqtt"].get(AttackType.DATA_POISONING, 0)
    s7 = matrix["s7"].get(AttackType.DATA_POISONING, 0)
    return _expect(
        malware > 0.1 and mqtt > 0.2 and s7 > 0.2,
        "Telnet > 10% malware drops, MQTT and S7 > 20% data poisoning",
        f"telnet {malware:.3f}, mqtt {mqtt:.3f}, s7 {s7:.3f}",
    )


@_declare("F8.weekly-ramp", "attacks", "schedule")
def _weekly_ramp(results):
    by_day = results.schedule.log.count_by_day()
    weeks = [sum(by_day.get(day, 0) for day in range(7 * week, 7 * week + 7))
             for week in range(4)]
    return _expect(
        all(later > 0.9 * earlier for earlier, later in zip(weeks, weeks[1:]))
        and weeks[3] > 1.2 * weeks[0],
        "no week below 90% of the last, week 4 > 1.2 x week 1",
        f"weeks {weeks}",
    )


@_declare("F8.dos-spikes", "attacks", "schedule")
def _dos_spikes(results):
    by_day = results.schedule.log.count_by_day()
    normal = statistics.mean(
        by_day.get(day, 0) for day in range(results.config.attacks.days)
        if day not in (23, 25)
    )
    spikes = (by_day.get(23, 0), by_day.get(25, 0))
    return _expect(min(spikes) > normal,
                   "days 24 and 26 above the other days' mean",
                   f"{spikes[0]}, {spikes[1]} vs mean {normal:.0f}")


@_declare("F8.listing-ramp", "attacks", "schedule", "deployment")
def _listing_ramp(results):
    by_day = results.schedule.log.count_by_day()
    first = min(day for honeypot in results.deployment.honeypots
                for day in honeypot.listing_days.values())
    pre = statistics.mean(by_day.get(day, 0) for day in range(first))
    post = statistics.mean(
        by_day.get(day, 0)
        for day in range(first, results.config.attacks.days)
        if day not in (23, 25)
    )
    return _expect(post > pre,
                   "more attacks per day after the first listing",
                   f"pre {pre:.0f}, post {post:.0f}")


@_declare("F9.exact", "attacks", "multistage", "schedule")
def _multistage_exact(results):
    found = set(results.multistage.sequences)
    truth = results.schedule.multistage_sources
    return _expect(found == truth,
                   "detection recovers the multistage actors exactly",
                   f"{len(truth - found)} missed, {len(found - truth)} extra")


@_declare("F9.telnet-ssh-start", "attacks", "multistage")
def _telnet_ssh_start(results):
    starts = results.multistage.starting_protocols()
    share = starts.get(ProtocolId.TELNET, 0) + starts.get(ProtocolId.SSH, 0)
    return _expect(share > 0.5 * sum(starts.values()),
                   "most multistage attacks start on Telnet or SSH",
                   f"{share} of {sum(starts.values())}")


@_declare("F9.later-stages", "attacks", "multistage")
def _later_stages(results):
    stages = results.multistage.stage_counts()
    problems = []
    if len(stages) >= 2 and stages[1]:
        top_two = sorted(stages[1], key=stages[1].get, reverse=True)[:2]
        if ProtocolId.SMB not in top_two and ProtocolId.SSH not in top_two:
            problems.append(f"step 2 top {', '.join(map(str, top_two))}")
    if len(stages) >= 3 and stages[2] and ProtocolId.S7 not in stages[2]:
        problems.append(f"step 3 {', '.join(map(str, stages[2]))}")
    return _expect(not problems,
                   "SMB or SSH in step 2's top two, S7 in step 3",
                   "; ".join(problems))


# -- telescope plane ---------------------------------------------------------

@_declare("T8.volume-ratios", "telescope", "telescope")
def _volume_ratios(results):
    capture = results.telescope
    telnet_paper = PAPER_TELESCOPE[ProtocolId.TELNET][0]
    telnet = capture.daily_average(ProtocolId.TELNET)
    off = []
    for protocol, (daily_avg, _, _) in PAPER_TELESCOPE.items():
        expected = daily_avg / telnet_paper
        got = capture.daily_average(protocol) / telnet
        if abs(got - expected) > 0.25 * expected:
            off.append(f"{protocol} {got:.4f} vs {expected:.4f}")
    return _expect(not off, "volume ratios to Telnet within 25%",
                   "; ".join(off))


@_declare("T8.telnet-dominates", "telescope", "telescope")
def _telnet_dominates(results):
    capture = results.telescope
    telnet = capture.daily_average(ProtocolId.TELNET)
    close = [f"{p} {capture.daily_average(p):,.0f}" for p in PAPER_TELESCOPE
             if p != ProtocolId.TELNET
             and not telnet > 10 * capture.daily_average(p)]
    return _expect(not close,
                   "Telnet > 10x every other protocol's packets",
                   f"telnet {telnet:,.0f}; " + "; ".join(close))


@_declare("T8.source-order", "telescope", "telescope")
def _source_order(results):
    order = [ProtocolId.UPNP, ProtocolId.AMQP, ProtocolId.MQTT,
             ProtocolId.XMPP, ProtocolId.COAP]
    sizes = [len(results.telescope.unique_sources(p)) for p in order]
    inversions = sum(1 for a, b in zip(sizes, sizes[1:]) if a < b)
    return _expect(inversions <= 1,
                   "sources UPnP > AMQP > MQTT > XMPP > CoAP "
                   "(one inversion allowed)",
                   ", ".join(f"{p} {n}" for p, n in zip(order, sizes)))


# -- across planes -----------------------------------------------------------

@_declare("F6.smb-top", "analysis", "schedule", "telescope", "virustotal")
def _smb_top(results):
    honeypot_side = {label: share
                     for label, share in _vt_fractions(results).items()
                     if label.endswith("(H)")}
    smb = honeypot_side.pop("smb (H)", 0.0)
    top = max(honeypot_side, key=honeypot_side.get)
    return _expect(smb >= honeypot_side[top] - 0.05,
                   "SMB sources flagged most (0.05 slack)",
                   f"smb (H) {smb:.3f}, {top} {honeypot_side[top]:.3f}")


@_declare("F6.telnet-h-over-t", "analysis",
          "schedule", "telescope", "virustotal")
def _telnet_h_over_t(results):
    fractions = _vt_fractions(results)
    honeypot, telescope = fractions["telnet (H)"], fractions["telnet (T)"]
    return _expect(honeypot > telescope,
                   "Telnet honeypot sources flagged more than telescope's",
                   f"(H) {honeypot:.3f}, (T) {telescope:.3f}")


@_declare("S5.3.vt-flagged", "analysis", "infected")
def _vt_flagged(results):
    fraction = results.infected.virustotal_flagged_fraction
    return _expect(fraction == 1.0, "VirusTotal flags every infected device",
                   f"{fraction:.3f}")


@_declare("S5.3.both-dominates", "analysis", "infected")
def _both_dominates(results):
    infected = results.infected
    both = len(infected.both)
    honeypots, telescope = (len(infected.honeypot_only),
                            len(infected.telescope_only))
    return _expect(both > honeypots and both > telescope,
                   "'both' outnumbers honeypots-only and telescope-only",
                   f"both {both}, honeypots {honeypots}, "
                   f"telescope {telescope}")


@_declare("S5.3.censys-types", "analysis", "infected")
def _censys_types(results):
    top_types = dict(results.infected.top_censys_device_types())
    return _expect(bool(top_types) and "Server" not in top_types,
                   "Censys surfaces IoT device types, not servers",
                   f"top types {top_types}")


@_declare("ALL.values", "analysis",
          *(artifact for _, _, artifact, _ in _SCORERS))
def _aggregate(results):
    report = score_study(results)
    mean = report.mean_relative_error()
    rows = [row for row in report.rows if not row.floor_dominated]
    worst = max(rows, key=lambda row: row.relative_error)
    return (
        _expect(mean < MEAN_RELATIVE_ERROR,
                f"mean relative error < {100 * MEAN_RELATIVE_ERROR:.0f}%",
                f"{100 * mean:.2f}%")
        + _expect(worst.relative_error < MAX_RELATIVE_ERROR,
                  f"max relative error < {100 * MAX_RELATIVE_ERROR:.0f}%",
                  f"{100 * worst.relative_error:.1f}% on "
                  f"{worst.experiment} {worst.quantity}")
    )


def claim_registry() -> InvariantRegistry:
    """Every paper claim: the value claims in row order, then the rank and
    inequality claims plane by plane, then the aggregate."""
    registry = InvariantRegistry()
    for experiment, plane, artifact, score in _SCORERS:
        registry.register(Invariant(
            name=f"{experiment}.values", plane=plane, requires=(artifact,),
            check=_on_results(_value_check(score)),
        ))
    for claim in _CLAIMS:
        registry.register(claim)
    return registry
