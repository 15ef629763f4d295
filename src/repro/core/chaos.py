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

A final **orchestrator leg** proves the durable scheduler's crash
story end-to-end: a child process runs ``repro orchestrate`` over two
campaigns, the parent SIGKILLs it as soon as task journals start
landing, then recovers in-process from the same state directory with
``ledger.io`` and ``lease.expire`` faults still armed.  The ledger
replay must requeue the leased campaigns, any torn ledger tail must
quarantine (never poison committed records), and the recovered
campaigns' artifact digests must byte-match fault-free oracle runs.

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
from typing import Any, Callable, Dict, List, Optional

from repro.core import faults, tasks
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
    #: Run the orchestrator crash-recovery leg (SIGKILL a child
    #: ``repro orchestrate``, recover from its ledger in-process).
    orchestrator_leg: bool = True
    #: Lease heartbeat deadline for the orchestrator leg; short, so a
    #: suppressed heartbeat (``lease.expire``) requeues quickly.
    lease_timeout: float = 5.0

    def spec(self) -> str:
        """The fault spec: every site armed, worker faults plane-scoped.

        ``worker.crash`` aims at the attacks plane and ``worker.hang``
        at the telescope plane so the two recovery paths are observed
        independently — a crash breaking a pool mid-generation would
        otherwise reshuffle which hang verdicts ever execute.
        ``ledger.io`` and ``lease.expire`` only fire inside the
        orchestrator leg (the study planes never touch those sites).
        """
        if self.fault_spec:
            return self.fault_spec
        return (
            "task:0.01:transient,"
            "cache.io:0.1:transient,"
            "store.corrupt:0.15,"
            "deadline:0.002:transient:2.5,"
            "worker.crash@attacks:0.05,"
            f"worker.hang@telescope:0.05:transient:{self.hang_delay:g},"
            "ledger.io:0.05:transient,"
            "lease.expire:0.25"
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
    #: Oracle digests for the orchestrator leg's campaigns, keyed
    #: ``seed <n>/<artifact>`` (fault-free single-study runs).
    orchestrator_baseline: Dict[str, str] = field(default_factory=dict)
    #: Digests the recovered orchestrator recorded for those campaigns.
    orchestrator_digests: Dict[str, str] = field(default_factory=dict)
    #: SIGKILLs delivered to the child orchestrator (0 or 1 — 0 means
    #: the child finished before any journal landed, still recovered).
    orchestrator_kills: int = 0
    #: Lease recoveries the restarted orchestrator performed (killed
    #: leases requeued from the ledger) plus ``lease.expire`` requeues.
    orchestrator_recoveries: int = 0
    #: Torn ledger tails quarantined during replay.
    orchestrator_quarantined: int = 0
    #: Campaigns the recovered orchestrator left in a non-``done``
    #: state, with their errors.
    orchestrator_failures: List[str] = field(default_factory=list)
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
        for name in sorted(self.orchestrator_baseline):
            got = self.orchestrator_digests.get(name)
            if got != self.orchestrator_baseline[name]:
                found.append(
                    f"orchestrator artifact {name} diverged after crash "
                    f"recovery (oracle "
                    f"{self.orchestrator_baseline[name][:12]}, "
                    f"recovered {str(got)[:12]})"
                )
        found.extend(
            f"orchestrator campaign failed: {f}"
            for f in self.orchestrator_failures
        )
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
        ]
        if self.orchestrator_baseline:
            lines.extend([
                f"  orchestrator kills delivered: "
                f"{self.orchestrator_kills}",
                f"  orchestrator lease recoveries: "
                f"{self.orchestrator_recoveries}",
                f"  orchestrator ledger tails quarantined: "
                f"{self.orchestrator_quarantined}",
                f"  orchestrator recovery matched: "
                f"{self.orchestrator_digests == self.orchestrator_baseline}",
            ])
        lines.append(f"  wall time: {self.wall_seconds:.1f}s")
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
    """SHA-256 over the canonical serialization of each plane store."""
    writer = results.telescope.writer
    flow_lines: List[str] = []
    for day in writer.days():
        flow_lines.extend(writer.lines_for_day(day))
    return {
        "scan.merged_db": _digest(results.merged_db.to_jsonl()),
        "attacks.log": _digest(results.schedule.log.to_jsonl()),
        "telescope.flowtuples": _digest("\n".join(flow_lines)),
    }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


def _orchestrator_leg(
    cfg: ChaosConfig,
    plan: FaultPlan,
    workdir: str,
    baseline_digests: Dict[str, str],
    say: Callable[[str], Any],
) -> Dict[str, Any]:
    """SIGKILL a child orchestrator mid-campaign, recover from its ledger.

    Returns the ``orchestrator_*`` fields of :class:`ChaosReport`.  The
    leg runs two campaigns (``seed`` and ``seed + 1``); the first one's
    oracle digests are the already-computed study baseline (digests are
    invariant across shards/workers/executor), the second's come from a
    fault-free single-study run.
    """
    import signal
    import subprocess
    import sys

    import repro
    from repro.core.study import Study
    from repro.orchestrator import CampaignSpec, Orchestrator

    seeds = (cfg.seed, cfg.seed + 1)
    specs = {
        seed: CampaignSpec(
            seed=seed, scale=cfg.scale, honeypot_scale=cfg.honeypot_scale,
            shards=2, workers=2, retries=cfg.retries, executor="serial",
        )
        for seed in seeds
    }
    oracle: Dict[str, str] = {}
    for name, digest in baseline_digests.items():
        oracle[f"seed {cfg.seed}/{name}"] = digest
    say(f"orchestrator leg: oracle run for seed {seeds[1]}...\n")
    oracle_config = specs[seeds[1]].to_config(
        os.path.join(workdir, "orchestrator-oracle-journal")
    )
    for name, digest in artifact_digests(
        Study(oracle_config, cache=False).run()
    ).items():
        oracle[f"seed {seeds[1]}/{name}"] = digest

    state_dir = os.path.join(workdir, "orchestrator")
    journal_root = os.path.join(state_dir, "store", "journals")
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-m", "repro", "orchestrate",
        "--state-dir", state_dir,
        "--seeds", ",".join(str(seed) for seed in seeds),
        "--scale", str(cfg.scale),
        "--honeypot-scale", str(cfg.honeypot_scale),
        "--shards", "2", "--workers", "2",
        "--retries", str(cfg.retries),
        "--max-active", "2",
        "--lease-timeout", str(cfg.lease_timeout),
        "--restart-budget", str(cfg.restart_budget),
        "--seed", str(cfg.fault_seed),
        "--inject-faults", cfg.spec(),
    ]
    say("orchestrator leg: launching the child orchestrator...\n")
    child = subprocess.Popen(
        command, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    kills = 0
    try:
        # Kill as soon as the first task journal lands: campaigns are
        # provably mid-flight, so recovery must replay real work.
        deadline = time.monotonic() + 180.0
        while time.monotonic() < deadline and child.poll() is None:
            if any(files for _, _, files in os.walk(journal_root)):
                break
            time.sleep(0.05)
        if child.poll() is None:
            child.send_signal(signal.SIGKILL)
            kills = 1
            say("orchestrator leg: SIGKILLed the child mid-campaign\n")
        else:  # pragma: no cover - child outran the poll loop
            say("orchestrator leg: child finished before the kill\n")
        child.wait()
    finally:
        if child.poll() is None:  # pragma: no cover
            child.kill()
            child.wait()

    say("orchestrator leg: recovering from the ledger in-process...\n")
    orchestrator = Orchestrator(
        state_dir,
        max_active=2,
        lease_timeout=cfg.lease_timeout,
        restart_budget=cfg.restart_budget,
    )
    try:
        with faults.injected(plan):
            # reuse=True: if the kill landed before a submit was
            # ledgered, the campaign is (re)submitted; otherwise the
            # recovered record answers and the ids line up.
            ids = {
                seed: orchestrator.submit(specs[seed], reuse=True)
                for seed in seeds
            }
            orchestrator.drain()
        queue = orchestrator.queue()
        digests: Dict[str, str] = {}
        failures: List[str] = []
        restarts = 0
        for seed, campaign_id in ids.items():
            doc = orchestrator.status(campaign_id)
            restarts += doc["restarts"]
            if doc["state"] != "done":
                failures.append(
                    f"{campaign_id} (seed {seed}) ended "
                    f"{doc['state']!r}: {doc.get('error')}"
                )
                continue
            for name, digest in doc["digests"].items():
                digests[f"seed {seed}/{name}"] = digest
    finally:
        orchestrator.shutdown()
    return {
        "orchestrator_baseline": oracle,
        "orchestrator_digests": digests,
        "orchestrator_kills": kills,
        # Per-campaign restarts already count the ledger-replay requeues
        # (queue["recovered"]) alongside any lease.expire requeues.
        "orchestrator_recoveries": restarts,
        "orchestrator_quarantined": queue["ledger_quarantined"],
        "orchestrator_failures": failures,
    }


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

        orchestrator_fields: Dict[str, Any] = {}
        if cfg.orchestrator_leg:
            orchestrator_fields = _orchestrator_leg(
                cfg, plan, workdir, baseline_digests, say,
            )

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
            **orchestrator_fields,
        )
        return report
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)
