"""The full study pipeline — every experiment of the paper, in order.

:class:`Study` is a thin facade over the phase-DAG engine
(:mod:`repro.core.engine`).  The phases match the methodology section:

1. **world** — build the scaled population (devices + wild honeypots);
2. **scan** — our ZMap/ZGrab campaign over six protocols, optionally behind
   the Europe blocklist; Project Sonar and Shodan snapshots; dataset merge;
3. **fingerprint** — banner-based honeypot detection plus the active SSH
   pass; filter the detections out of the scan results;
4. **classify** — misconfiguration report (Table 5), device types
   (Figure 2), country rollup (Table 10);
5. **deploy & attack** — the six lab honeypots face one month of generated
   attacks (Tables 7, Figures 3/4/7/8/9);
6. **telescope** — the /8 darknet capture (Table 8);
7. **intel** — GreyNoise/VirusTotal/Censys/ExoneraTor stores built over the
   actor ledger;
8. **join** — suspicious-traffic classification (Figures 5/6), multistage
   detection (Figure 9), and the infected-host intersection (§5.3).

Where the old driver enforced ordering with ``assert``-guard chains, the
facade now *auto-resolves* prerequisites: ``Study(cfg).run_classification()``
builds the world and runs the scans on its own.  Construct with
``auto_resolve=False`` to get the strict behaviour back as a typed
:class:`~repro.net.errors.PhaseOrderError` (asserts would vanish under
``python -O``).  Phase artifacts are memoized through the engine's shared
:class:`~repro.core.engine.PhaseCache`, so a second study with an equal
config replays the expensive world/scan phases from cache; pass
``cache=False`` to opt out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.analysis.country import CountryReport
from repro.analysis.device_type import DeviceTypeReport
from repro.analysis.fingerprint import FingerprintReport
from repro.analysis.infected import InfectedHostsReport
from repro.analysis.misconfig import MisconfigReport
from repro.analysis.multistage import MultistageReport
from repro.attacks.schedule import ScheduleResult
from repro.core.config import StudyConfig
from repro.core.engine import PhaseCache, StudyEngine
from repro.core.metrics import StudyMetrics
from repro.core.taxonomy import TrafficClass
from repro.honeypots.base import HoneypotDeployment
from repro.intel.censysiot import CensysIotDB
from repro.intel.exonerator import ExoneraTorDB
from repro.intel.greynoise import GreyNoiseDB
from repro.intel.virustotal import VirusTotalDB
from repro.internet.population import Population
from repro.net.asn import AsnRegistry
from repro.net.errors import PhaseOrderError
from repro.net.geo import GeoRegistry
from repro.protocols.base import ProtocolId
from repro.scanner.records import ScanDatabase
from repro.telescope.telescope import TelescopeCapture

__all__ = ["StudyResults", "Study"]


@dataclass
class StudyResults:
    """Everything a full run produces, keyed to the paper's artifacts."""

    config: StudyConfig
    population: Optional[Population] = None
    geo: Optional[GeoRegistry] = None
    asn: Optional[AsnRegistry] = None
    # scan phase
    zmap_db: Optional[ScanDatabase] = None
    sonar_db: Optional[ScanDatabase] = None
    shodan_db: Optional[ScanDatabase] = None
    merged_db: Optional[ScanDatabase] = None
    # fingerprint phase (Table 6)
    fingerprints: Optional[FingerprintReport] = None
    # classification phase (Tables 5/10, Figure 2)
    misconfig: Optional[MisconfigReport] = None
    device_types: Optional[DeviceTypeReport] = None
    countries: Optional[CountryReport] = None
    # attack phase (Table 7, Figures 3/4/7/8)
    deployment: Optional[HoneypotDeployment] = None
    schedule: Optional[ScheduleResult] = None
    # telescope phase (Table 8)
    telescope: Optional[TelescopeCapture] = None
    # intel stores
    greynoise: Optional[GreyNoiseDB] = None
    virustotal: Optional[VirusTotalDB] = None
    censys_iot: Optional[CensysIotDB] = None
    exonerator: Optional[ExoneraTorDB] = None
    # joins (Figures 5/6/9, §5.3)
    multistage: Optional[MultistageReport] = None
    infected: Optional[InfectedHostsReport] = None
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_engine(cls, engine: StudyEngine) -> "StudyResults":
        """The engine's materialized artifacts and phase timings."""
        results = cls(config=engine.config,
                      phase_seconds=engine.metrics.group_seconds())
        for name in _RESULT_FIELDS:
            if engine.materialized(name):
                setattr(results, name, engine.artifact(name))
        return results

    # -- derived views used by reports and benches -------------------------

    def table4_counts(self) -> Dict[str, Dict[ProtocolId, int]]:
        """Exposed hosts per protocol per source — Table 4."""
        result: Dict[str, Dict[ProtocolId, int]] = {}
        for name, database in (
            ("zmap", self.zmap_db),
            ("sonar", self.sonar_db),
            ("shodan", self.shodan_db),
        ):
            if database is not None:
                result[name] = database.counts_by_protocol()
        return result

    def honeypot_source_split(self, honeypot: str) -> Tuple[int, int, int]:
        """(scanning, malicious, unknown) unique sources for one honeypot —
        Table 7's last columns, computed via rDNS like the paper did."""
        if self.schedule is None:
            raise PhaseOrderError(
                "honeypot_source_split needs the attack month — "
                "run_attacks first", missing=("schedule",),
            )
        sources = self.schedule.log.unique_sources(honeypot=honeypot)
        scanning = malicious = unknown = 0
        for address in sources:
            info = self.schedule.registry.get(address)
            if info is None:
                unknown += 1
            elif info.traffic_class == TrafficClass.SCANNING_SERVICE:
                scanning += 1
            elif info.traffic_class == TrafficClass.MALICIOUS:
                malicious += 1
            else:
                unknown += 1
        return scanning, malicious, unknown


#: Facade method → (artifacts it must find materialized, hint) when strict.
_STRICT_PREREQS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "run_scans": (("population",), "build_world"),
    "run_fingerprinting": (("merged_db",), "run_scans"),
    "run_classification": (("merged_db", "fingerprints"),
                           "run_fingerprinting"),
    "run_attacks": (("population",), "build_world"),
    "run_telescope": (("schedule",), "run_attacks"),
    "build_intel": (("schedule",), "run_attacks"),
    "run_joins": (("misconfig", "schedule", "telescope", "virustotal"),
                  "run_telescope and build_intel"),
}

#: Engine artifact name → StudyResults field (identical today, but kept
#: explicit so the facade fails loudly if the graph grows a new artifact).
_RESULT_FIELDS = (
    "population", "geo", "asn", "zmap_db", "sonar_db", "shodan_db",
    "merged_db", "fingerprints", "misconfig", "device_types", "countries",
    "deployment", "schedule", "telescope", "greynoise", "virustotal",
    "censys_iot", "exonerator", "multistage", "infected",
)


class Study:
    """Pipeline driver: a facade over :class:`StudyEngine`.

    Parameters
    ----------
    config:
        The study configuration (defaults to paper scales).
    cache:
        ``None``/``True`` for the process-wide shared phase cache,
        ``False`` to disable memoization, or a private
        :class:`~repro.core.engine.PhaseCache` (e.g. with ``directory=``
        for the persistent on-disk layer).
    auto_resolve:
        When True (default), calling any phase method runs its
        prerequisites automatically; when False, missing prerequisites
        raise :class:`~repro.net.errors.PhaseOrderError`.
    """

    def __init__(
        self,
        config: Optional[StudyConfig] = None,
        *,
        cache: Union[None, bool, PhaseCache] = None,
        auto_resolve: bool = True,
    ) -> None:
        self.config = config or StudyConfig()
        self.auto_resolve = auto_resolve
        self.engine = StudyEngine(self.config, cache=cache)
        self.results = StudyResults(config=self.config)

    # -- engine plumbing ---------------------------------------------------

    @property
    def metrics(self) -> StudyMetrics:
        """Per-phase wall time, cache hits and throughput for this study."""
        return self.engine.metrics

    def _ensure(self, method: str, *artifacts: str) -> None:
        if not self.auto_resolve and method in _STRICT_PREREQS:
            needed, hint = _STRICT_PREREQS[method]
            missing = [a for a in needed if not self.engine.materialized(a)]
            if missing:
                raise PhaseOrderError(
                    f"{method} requires {', '.join(missing)} — "
                    f"call {hint} first",
                    missing=missing,
                )
        self.engine.ensure(*artifacts)
        self._sync()

    def _sync(self) -> None:
        """Refresh :attr:`results` from the engine's artifacts."""
        self.results = StudyResults.from_engine(self.engine)

    # -- phases -----------------------------------------------------------

    def build_world(self) -> Population:
        """Phase 1: the scaled Internet."""
        self._ensure("build_world", "population", "geo", "asn")
        return self.results.population

    def run_scans(self) -> ScanDatabase:
        """Phase 2: our campaign plus open datasets, merged."""
        self._ensure("run_scans", "merged_db")
        return self.results.merged_db

    def run_fingerprinting(self) -> FingerprintReport:
        """Phase 3: find honeypots hiding in the scan results."""
        self._ensure("run_fingerprinting", "fingerprints")
        return self.results.fingerprints

    def run_classification(self) -> MisconfigReport:
        """Phase 4: misconfigurations, device types, countries."""
        self._ensure(
            "run_classification", "misconfig", "device_types", "countries"
        )
        return self.results.misconfig

    def run_attacks(self) -> ScheduleResult:
        """Phase 5: deploy the lab and simulate the month."""
        self._ensure("run_attacks", "deployment", "schedule")
        return self.results.schedule

    def run_telescope(self) -> TelescopeCapture:
        """Phase 6: the darknet capture."""
        self._ensure("run_telescope", "telescope")
        return self.results.telescope

    def build_intel(self) -> None:
        """Phase 7: populate the threat-intelligence stores."""
        self._ensure(
            "build_intel",
            "greynoise", "virustotal", "censys_iot", "exonerator",
        )

    def run_joins(self) -> InfectedHostsReport:
        """Phase 8: the cross-experiment analyses."""
        self._ensure("run_joins", "multistage", "infected")
        return self.results.infected

    # -- the whole paper ----------------------------------------------------

    def run(self) -> StudyResults:
        """Execute every phase and return the results."""
        self._ensure("run", *self.engine.graph.artifacts())
        return self.results

    def validate(self, registry=None):
        """Run the cross-plane structural invariants over the artifacts.

        Materializes (or reuses) exactly the artifacts each invariant
        needs, plane by plane, and returns the list of
        :class:`~repro.core.validate.Violation` found — empty when the
        study's artifacts are structurally sound.  The CLI's ``validate``
        subcommand maps a non-empty result to exit code 5.
        """
        from repro.core.validate import run_validation

        violations = run_validation(self.engine, registry)
        self._sync()
        return violations
