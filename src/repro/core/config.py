"""Top-level study configuration.

One :class:`StudyConfig` determines the entire reproduction: the world
(population scales), the scan, the attack month, the telescope, and the
intel stores all derive their seeds and scales from it.  Two studies built
from equal configs produce identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.attacks.schedule import AttackScheduleConfig
from repro.core.tasks import EXECUTORS
from repro.internet.population import PopulationConfig
from repro.net.compat import DATACLASS_KW_ONLY
from repro.net.errors import ConfigError
from repro.scanner.zmap import ScanConfig
from repro.telescope.telescope import TelescopeConfig

__all__ = ["StudyConfig"]


@dataclass(**DATACLASS_KW_ONLY)
class StudyConfig:
    """Everything a full study run needs (keyword-only on Python 3.10+).

    ``seed`` is folded into every sub-config whose seed is left at the
    ``None`` inherit-sentinel, so a single integer pins the whole world.
    Passing an explicit integer to a sub-config always wins — including
    an explicit ``7``, which older releases silently overwrote.

    Every config in the tree exposes ``validate()`` raising the typed
    :class:`~repro.net.errors.ConfigError` (the CLI's exit-code-2 path);
    construction validates automatically, and callers who mutate a config
    afterwards can re-validate explicitly.
    """

    seed: int = 7
    population: PopulationConfig = field(default_factory=PopulationConfig)
    scan: ScanConfig = field(default_factory=ScanConfig)
    attacks: AttackScheduleConfig = field(default_factory=AttackScheduleConfig)
    telescope: TelescopeConfig = field(default_factory=TelescopeConfig)
    #: Include the Project Sonar / Shodan dataset correlation stage.
    use_open_datasets: bool = True
    #: Apply the FireHOL-style Europe blocklist to our own ZMap scan.
    use_eu_blocklist: bool = False
    #: Run the active SSH fingerprinting pass (needed to find Kippo).
    active_fingerprinting: bool = True
    #: Capture honeypot sessions as pcap bytes (the tcpdump stand-in of
    #: §5.1; costs memory proportional to attack volume).
    capture_pcap: bool = False
    #: What a failing *optional* phase (sonar/shodan vantage, intel
    #: enrichment) does to the study: ``"abort"`` propagates the error,
    #: ``"degrade"`` records the phase as degraded (artifacts ``None``)
    #: and carries on.  Robustness knob — excluded from the config
    #: fingerprint, like ``workers``.
    fail_policy: str = field(default="abort", compare=False)
    #: Directory for per-task completion journals (crash-safe campaigns).
    #: ``None`` disables journaling.  Excluded from the fingerprint.
    journal_dir: Optional[str] = field(default=None, compare=False)
    #: Replay journaled task results from a previous interrupted run of
    #: this exact config (requires ``journal_dir``).  Excluded from the
    #: fingerprint: a resumed run is byte-identical to an uninterrupted
    #: one by construction.
    resume: bool = field(default=False, compare=False)
    #: Per-task wall-time supervision, as ``"SOFT"`` or ``"SOFT:HARD"``
    #: seconds (see :class:`~repro.core.tasks.TaskDeadline`): overrunning
    #: the soft deadline records a stall warning in ``StudyMetrics``,
    #: overrunning the hard deadline retries the task as a transient
    #: fault.  ``None`` disables supervision.  Excluded from the
    #: fingerprint: deadlines change scheduling, never output bytes.
    task_deadline: Optional[str] = field(default=None, compare=False)
    #: Task executor for the three sharded planes: ``"serial"``,
    #: ``"process"`` (true multi-core; sidesteps the GIL), or ``"auto"``
    #: (process when more than one worker AND more than one core are
    #: available).  Stamped over every sub-config left at the ``None``
    #: inherit-sentinel.  All executors produce byte-identical artifacts,
    #: so the knob is excluded from equality/fingerprints.
    executor: str = field(default="auto", compare=False)

    def __post_init__(self) -> None:
        self.validate()
        # Propagate the master seed into sub-configs left at the inherit
        # sentinel; an explicit sub-seed is kept as-is.
        for sub in (self.population, self.scan, self.attacks, self.telescope):
            if getattr(sub, "seed", 0) is None:
                sub.seed = self.seed
        # Same inherit rule for the task executor.
        for sub in (self.scan, self.attacks, self.telescope):
            if getattr(sub, "executor", "") is None:
                sub.executor = self.executor

    def validate(self) -> None:
        """Raise :class:`~repro.net.errors.ConfigError` on invalid knobs.

        Sub-configs validate themselves at construction; this re-checks
        them too, so a config mutated after construction (e.g. by CLI flag
        application) can be revalidated in one call.
        """
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.fail_policy not in ("abort", "degrade"):
            raise ConfigError(
                f"fail_policy must be 'abort' or 'degrade', "
                f"got {self.fail_policy!r}"
            )
        if self.resume and not self.journal_dir:
            raise ConfigError(
                "resume=True requires journal_dir (the per-task completion "
                "journal a resumed run replays)"
            )
        if self.executor not in EXECUTORS:
            raise ConfigError(
                f"executor must be one of {', '.join(EXECUTORS)}; "
                f"got {self.executor!r}"
            )
        if self.task_deadline is not None:
            # Parse for validation only; the engine builds fresh
            # supervisors per plane from the spec string.
            from repro.core.tasks import TaskDeadline

            TaskDeadline.parse(self.task_deadline)
        for sub in (self.population, self.scan, self.attacks, self.telescope):
            validate = getattr(sub, "validate", None)
            if validate is not None:
                validate()

    @classmethod
    def quick(cls, seed: int = 7) -> "StudyConfig":
        """A fast configuration for tests and examples (coarser scales)."""
        return cls(
            seed=seed,
            population=PopulationConfig(scale=8192, honeypot_scale=256),
            attacks=AttackScheduleConfig(attack_scale=128),
            telescope=TelescopeConfig(
                telnet_source_scale=65_536, source_scale=512,
                packet_scale=131_072,
            ),
        )

    @classmethod
    def paper_scale(cls, seed: int = 7) -> "StudyConfig":
        """The default 'full' reproduction scales used in EXPERIMENTS.md."""
        return cls(seed=seed)
