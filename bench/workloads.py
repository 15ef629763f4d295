"""The four workloads: what one unit runs, and what it must produce.

Every unit is one user flow from a cold :class:`~repro.Study`
(``cache=False``): users run one study per process, so a phase-cache hit
would time work no user waits for.  ``quick=True`` runs the same flow at
``StudyConfig.quick`` scale; the set-up probe and the self-tests use it.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro import Study, StudyConfig
from repro.attacks.schedule import AttackScheduleConfig
from repro.internet.population import PopulationConfig
from repro.stream.service import CampaignService, StreamConfig
from repro.telescope.telescope import TelescopeConfig

__all__ = [
    "Unit",
    "Workload",
    "WORKLOADS",
    "artifact_counts",
]


@dataclass
class Unit:
    """What one unit produced."""

    results: Any
    #: Engine phase time inside the unit; the rest of its wall time is
    #: the stream replay (``serve_resume``) or facade glue.
    phase_seconds: float
    #: Final operator snapshot digests (``serve_resume`` only).
    operators: Dict[str, str] = field(default_factory=dict)
    service: Any = None


def artifact_counts(results) -> Dict[str, int]:
    """Exact row counts of the three plane stores (cheap, checked every unit)."""
    return {
        "scan.rows": len(results.merged_db),
        "attacks.events": len(results.schedule.log),
        "telescope.records": len(results.telescope.writer),
    }


class Workload:
    """One workload bound to a seed and a scratch directory.

    ``prepare`` builds the fixture once, ``before_unit`` resets per-unit
    state; neither is timed.  ``run_unit`` is the timed user flow.
    ``family`` names the artifacts a unit must reproduce: every ``paper``
    workload produces the bytes of ``StudyConfig.paper_scale(seed)``.
    """

    name = ""
    family = "paper"
    #: Digest every unit; otherwise count every unit and digest the first
    #: timed one.
    digest_every_unit = True

    def __init__(self, seed: int, workdir: str, *, quick: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.quick = quick
        self.journal = os.path.join(workdir, "journal")

    def config(self) -> StudyConfig:
        if self.quick:
            return StudyConfig.quick(self.seed)
        return StudyConfig.paper_scale(self.seed)

    def prepare(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)

    def before_unit(self) -> None:
        pass

    def run_unit(self) -> Unit:
        study = Study(self.config(), cache=False)
        results = study.run()
        return Unit(results, study.metrics.wall_seconds)

    def once(self, unit: Unit) -> List[str]:
        """Untimed checks made once per run, on the warm-up unit."""
        return []


class StudyPaper(Workload):
    """``StudyConfig.paper_scale``, serial: every paper table, one command."""

    name = "study_paper"


class StudyPool2Journaled(Workload):
    """The paper study on a 2-worker process pool, journaling every task."""

    name = "study_pool2_journaled"

    def config(self) -> StudyConfig:
        config = super().config()
        config.executor = "process"
        for sub in (config.scan, config.attacks, config.telescope):
            sub.executor = "process"
        config.scan.shards = 2
        config.attacks.workers = 2
        config.telescope.workers = 2
        config.journal_dir = self.journal
        config.validate()
        return config

    def before_unit(self) -> None:
        shutil.rmtree(self.journal, ignore_errors=True)


class DataplaneDos90(Workload):
    """A DoS-spike attack month and a 90-day telescope on a 1:4096 world."""

    name = "dataplane_dos90"
    family = "dataplane"
    # The full digest hashes ~850k flow records, about twice a unit's
    # time, so only the first timed unit of a run pays it.
    digest_every_unit = False

    def config(self) -> StudyConfig:
        if self.quick:
            population = PopulationConfig(scale=8192, honeypot_scale=256)
            attack_scale = 128
            telescope = TelescopeConfig(
                days=90, telnet_source_scale=65_536, source_scale=512,
                packet_scale=131_072,
            )
        else:
            population = PopulationConfig(scale=4096, honeypot_scale=256)
            attack_scale = 8
            telescope = TelescopeConfig(
                days=90, telnet_source_scale=2048, source_scale=16,
            )
        return StudyConfig(
            seed=self.seed,
            population=population,
            attacks=AttackScheduleConfig(
                attack_scale=attack_scale, dos_spike_fraction=0.85,
                scanning_share=0.08,
            ),
            telescope=telescope,
        )


class ServeResume(Workload):
    """A streamed campaign resuming every task from a journal."""

    name = "serve_resume"

    def config(self) -> StudyConfig:
        config = super().config()
        config.journal_dir = self.journal
        config.resume = True
        config.validate()
        return config

    def prepare(self) -> None:
        super().prepare()
        # The cold campaign: every task misses the empty journal and is
        # written to it, so each timed campaign replays all of them.
        shutil.rmtree(self.journal, ignore_errors=True)
        self.run_unit()

    def run_unit(self) -> Unit:
        service = CampaignService(
            stream=StreamConfig(batch_size=256),
            study=Study(self.config(), cache=False),
        )
        service.run()
        if service.state != "done":
            raise RuntimeError(
                f"campaign ended in state {service.state!r}: {service.error}"
            )
        return Unit(
            service.study.results,
            service.study.metrics.wall_seconds,
            operators=service.final_digests(),
            service=service,
        )

    def once(self, unit: Unit) -> List[str]:
        return unit.service.verify_against_batch()


#: Workload name → class, in the order ``bench run`` measures them.
WORKLOADS = {
    workload.name: workload
    for workload in (StudyPaper, StudyPool2Journaled, DataplaneDos90,
                     ServeResume)
}
