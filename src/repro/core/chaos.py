"""The seeded chaos soak: a full campaign under randomized faults.

This is the supervision layer's end-to-end proof.  :func:`run_chaos`
runs the same 1:N campaign twice:

1. **baseline** — fault-free, serial executor, no cache; its three plane
   stores (merged scan DB, attack-event log, FlowTuple capture) are
   digested as the byte-identity oracle.
2. **soaked** — process executor with a seeded
   :class:`~repro.core.faults.FaultPlan` spanning every injection site:
   transient task faults, cache I/O faults, storage corruption (caught
   by the integrity envelopes), injected task delays overrunning the
   hard deadline, worker crashes (``os._exit`` inside pool workers —
   the pool supervisor rebuilds the pool and requeues the in-flight
   keys) and worker hangs (tripping the no-progress watchdog).
   Retries, journals and resume are all enabled, exactly as a
   production invocation would arm them.

Because every supervised task is a pure function of its derived PRNG
key, all of that violence must not move a single byte: the soaked run's
artifact digests are compared against the baseline, the validate
invariants are re-run over the soaked artifacts, and the soaked stores
are then replayed through the streaming service (bounded publish queue,
``block`` policy) so the online operators can be checked against their
batch oracles and the bus/ring overflow accounting lands in the
metrics.  Any divergence raises
:class:`~repro.net.errors.ValidationError` (CLI exit code 5).

The fault plan is *randomized but seeded*: which tasks crash their
worker, which blobs are corrupted, which attempts fail is drawn from
``fault_seed`` via the same keyed-PRNG discipline as the rest of the
pipeline, so a failing soak reproduces exactly from its seed pair.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core import faults, tasks
from repro.core.columns import joined_pieces
from repro.core.config import StudyConfig
from repro.core.engine import PhaseCache
from repro.core.faults import FaultPlan
from repro.core.metrics import StudyMetrics
from repro.core.study import Study
from repro.internet.population import PopulationConfig
from repro.net.errors import ValidationError

__all__ = ["ChaosConfig", "ChaosReport", "run_chaos"]


@dataclass
class ChaosConfig:
    """Knobs for one chaos soak (defaults match the CI soak job)."""

    seed: int = 7
    #: Seed of the randomized fault plan (independent of the study seed,
    #: so the same world can be soaked under many failure schedules).
    fault_seed: int = 93
    scale: int = 4096
    honeypot_scale: int = 256
    workers: int = 4
    shards: int = 4
    retries: int = 3
    restart_budget: int = 3
    #: The pool supervisor's no-progress window (seconds); must sit well
    #: under ``hang_delay`` so an injected hang is detected, and above
    #: any honest task's runtime so clean pools are never restarted.
    hang_timeout: float = 5.0
    #: How long a ``worker.hang`` verdict makes the worker sleep.
    hang_delay: float = 20.0
    #: Soft:hard task deadline armed during the soak; the injected
    #: ``deadline`` delay overruns the hard limit, forcing a supervised
    #: retry.
    task_deadline: str = "1:2"
    #: Override the generated fault spec (``--inject-faults`` grammar).
    fault_spec: Optional[str] = None
    #: Working directory for the soaked run's cache + journals; a
    #: temporary directory (removed afterwards) when unset.
    workdir: Optional[str] = None

    def spec(self) -> str:
        """The fault spec: every site armed, worker faults plane-scoped.

        ``worker.crash`` aims at the attacks plane and ``worker.hang``
        at the telescope plane so the two recovery paths are observed
        independently — a crash breaking a pool mid-generation would
        otherwise reshuffle which hang verdicts ever execute.
        """
        if self.fault_spec:
            return self.fault_spec
        return (
            "task:0.01:transient,"
            "cache.io:0.1:transient,"
            "store.corrupt:0.15,"
            "deadline:0.002:transient:2.5,"
            "worker.crash@attacks:0.05,"
            f"worker.hang@telescope:0.05:transient:{self.hang_delay:g}"
        )

    def plan(self) -> FaultPlan:
        return FaultPlan.parse(self.spec(), seed=self.fault_seed)


@dataclass
class ChaosReport:
    """Everything the soak observed, plus the pass/fail verdict."""

    spec: str
    seed: int
    fault_seed: int
    baseline_digests: Dict[str, str]
    chaos_digests: Dict[str, str]
    #: Digests of a third run resuming over the soaked run's journals
    #: and cache with faults still armed (corrupted blobs must
    #: quarantine and recompute, not poison the resume).
    resume_digests: Dict[str, str] = field(default_factory=dict)
    #: Validate-invariant violations over the soaked artifacts.
    violations: List[str] = field(default_factory=list)
    #: Online-operator snapshots that diverged from their batch oracles.
    parity_problems: List[str] = field(default_factory=list)
    worker_kills: int = 0
    hangs: int = 0
    pool_restarts: int = 0
    downgrades: int = 0
    quarantines: int = 0
    events_evicted: int = 0
    wall_seconds: float = 0.0
    metrics: Optional[StudyMetrics] = None

    @property
    def matched(self) -> bool:
        return self.baseline_digests == self.chaos_digests

    @property
    def passed(self) -> bool:
        return not self.problems()

    def problems(self) -> List[str]:
        """Every reason this soak would fail, human-readable."""
        found: List[str] = []
        for name in sorted(self.baseline_digests):
            if self.chaos_digests.get(name) != self.baseline_digests[name]:
                found.append(
                    f"artifact {name} diverged under faults "
                    f"(baseline {self.baseline_digests[name][:12]}, "
                    f"soaked {str(self.chaos_digests.get(name))[:12]})"
                )
            if (
                self.resume_digests
                and self.resume_digests.get(name)
                != self.baseline_digests[name]
            ):
                found.append(
                    f"artifact {name} diverged on resume replay "
                    f"(baseline {self.baseline_digests[name][:12]}, "
                    f"resumed {str(self.resume_digests.get(name))[:12]})"
                )
        found.extend(f"invariant violated: {v}" for v in self.violations)
        found.extend(f"operator parity: {p}" for p in self.parity_problems)
        return found

    def render(self) -> str:
        lines = [
            f"chaos soak (seed {self.seed}, fault seed {self.fault_seed})",
            f"  plan: {self.spec}",
            f"  worker kills survived: {self.worker_kills}",
            f"  hangs detected: {self.hangs}",
            f"  pool restarts: {self.pool_restarts}",
            f"  executor downgrades: {self.downgrades}",
            f"  blobs quarantined: {self.quarantines}",
            f"  ring events evicted: {self.events_evicted}",
            f"  artifact digests matched: {self.matched}",
            f"  resume replay matched: "
            f"{self.resume_digests == self.baseline_digests}",
            f"  wall time: {self.wall_seconds:.1f}s",
        ]
        for problem in self.problems():
            lines.append(f"  FAIL: {problem}")
        return "\n".join(lines) + "\n"

    def metrics_json(self) -> str:
        if self.metrics is None:
            return "{}"
        return self.metrics.to_json()

    def raise_on_failure(self) -> None:
        problems = self.problems()
        if problems:
            raise ValidationError(
                "chaos soak failed: " + "; ".join(problems)
            )


def artifact_digests(results) -> Dict[str, str]:
    """SHA-256 over the canonical serialization of each plane store: its
    lines joined by ``"\\n"`` (the JSONL rows; the flow tuples day by
    day), hashed as they stream so no plane's text is ever held whole."""
    writer = results.telescope.writer
    return {
        "scan.merged_db": _digest(results.merged_db.iter_jsonl()),
        "attacks.log": _digest(results.schedule.log.iter_jsonl()),
        "telescope.flowtuples": _digest(
            line for day in writer.days() for line in writer.lines_for_day(day)
        ),
    }


def _digest(lines: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for piece in joined_pieces(lines):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


def _study_config(cfg: ChaosConfig, journal_dir: Optional[str]) -> StudyConfig:
    """The campaign config; ``journal_dir`` marks the soaked variant."""
    config = StudyConfig.quick(seed=cfg.seed)
    config.population = PopulationConfig(
        seed=cfg.seed, scale=cfg.scale, honeypot_scale=cfg.honeypot_scale,
    )
    config.scan.shards = cfg.shards
    config.attacks.workers = cfg.workers
    config.telescope.workers = cfg.workers
    if journal_dir is None:
        executor = "serial"  # the quiet oracle run
    else:
        executor = "process"  # the plane worker faults aim at
        config.scan.retries = cfg.retries
        config.attacks.retries = cfg.retries
        config.telescope.retries = cfg.retries
        config.journal_dir = journal_dir
        config.resume = True
        config.task_deadline = cfg.task_deadline
    config.executor = executor
    for sub in (config.scan, config.attacks, config.telescope):
        sub.executor = executor
    config.validate()
    return config


def run_chaos(
    config: Optional[ChaosConfig] = None,
    *,
    progress: Optional[Callable[[str], Any]] = None,
) -> ChaosReport:
    """Run the soak; returns the report (raise via ``raise_on_failure``)."""
    from repro.core.validate import default_registry
    from repro.stream.service import CampaignService, StreamConfig

    cfg = config or ChaosConfig()
    say = progress or (lambda text: None)
    plan = cfg.plan()
    workdir = cfg.workdir
    cleanup = workdir is None
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    started = time.perf_counter()
    try:
        say(f"chaos plan: {plan.describe()}\n")
        say("running the fault-free baseline...\n")
        baseline = Study(_study_config(cfg, None), cache=False)
        baseline_digests = artifact_digests(baseline.run())

        say(
            f"running the soaked campaign (process executor, "
            f"{cfg.workers} workers, retries {cfg.retries}, restart "
            f"budget {cfg.restart_budget}, hang timeout "
            f"{cfg.hang_timeout:g}s)...\n"
        )
        cache_dir = os.path.join(workdir, "cache")
        journal_dir = os.path.join(workdir, "journal")
        cache = PhaseCache(directory=cache_dir)
        study = Study(_study_config(cfg, journal_dir), cache=cache)
        with faults.injected(plan), tasks.pool_supervision(
            hang_timeout=cfg.hang_timeout,
            restart_budget=cfg.restart_budget,
        ):
            results = study.run()
            say("validating the soaked artifacts...\n")
            violations = [
                f"{violation.invariant}: {violation.message}"
                for violation in study.validate(default_registry())
            ]
        chaos_digests = artifact_digests(results)

        # A third run resumes over the journals and phase cache the
        # soaked run left behind, faults still armed: corrupted blobs
        # must be quarantined and recomputed on read, and the replayed
        # artifacts must still match the baseline bytes.
        say("resuming over the soaked journals and cache...\n")
        resume_cache = PhaseCache(directory=cache_dir)
        resumed = Study(_study_config(cfg, journal_dir), cache=resume_cache)
        with faults.injected(plan), tasks.pool_supervision(
            hang_timeout=cfg.hang_timeout,
            restart_budget=cfg.restart_budget,
        ):
            resume_digests = artifact_digests(resumed.run())

        # Replay the soaked stores through the streaming service with a
        # bounded publish queue: checks online/batch operator parity
        # survives backpressure and puts bus accounting in the metrics.
        say("replaying the soaked stores through the stream service...\n")
        service = CampaignService(
            stream=StreamConfig(
                batch_size=512, queue_capacity=8, publish_policy="block",
            ),
            study=study,
        )
        service.run()
        if service.state == "done":
            parity = service.verify_against_batch()
        else:
            parity = [
                f"streamed replay ended in state {service.state!r}: "
                f"{service.error}"
            ]

        if getattr(cache, "quarantined", None):
            study.metrics.record_quarantines(cache.quarantined)
        if getattr(resume_cache, "quarantined", None):
            study.metrics.record_quarantines(resume_cache.quarantined)
        study.metrics.quarantined.extend(resumed.metrics.quarantined)
        supervisor = study.metrics.supervisor
        report = ChaosReport(
            spec=cfg.spec(),
            seed=cfg.seed,
            fault_seed=cfg.fault_seed,
            baseline_digests=baseline_digests,
            chaos_digests=chaos_digests,
            resume_digests=resume_digests,
            violations=violations,
            parity_problems=parity,
            worker_kills=sum(
                1 for row in supervisor if row.reason == "worker-crash"
            ),
            hangs=sum(
                1 for row in supervisor if row.reason == "hang-timeout"
            ),
            pool_restarts=sum(
                1 for row in supervisor if row.action == "pool-restart"
            ),
            downgrades=sum(
                1 for row in supervisor if row.action == "downgrade"
            ),
            quarantines=len(study.metrics.quarantined),
            events_evicted=service.bus.events.dropped,
            wall_seconds=time.perf_counter() - started,
            metrics=study.metrics,
        )
        return report
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)
