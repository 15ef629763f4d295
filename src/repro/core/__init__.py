"""Core: study configuration, orchestration, results and report rendering."""

from repro.core.config import StudyConfig
from repro.core.engine import (
    PhaseCache,
    PhaseGraph,
    PhaseSpec,
    StudyEngine,
    build_study_graph,
    config_fingerprint,
    default_cache,
)
from repro.core.fidelity import FidelityReport, FidelityRow, score_study
from repro.core.integrity import (
    QuarantineRecord,
    quarantine_file,
    unwrap_envelope,
    wrap_envelope,
)
from repro.core.metrics import JournalMetric, PhaseMetric, StudyMetrics
from repro.core.report import (
    format_table,
    render_case_studies,
    render_figure2,
    render_figure7,
    render_figure8,
    render_figure9,
    render_intersection,
    render_table4,
    render_table5,
    render_table6,
    render_table7,
    render_table8,
    render_table10,
)
from repro.core.scaling import apportion, scale_count
from repro.core.study import Study, StudyResults
from repro.core.tasks import TaskDeadline, TaskJournal, TaskStall
from repro.core.validate import (
    Invariant,
    InvariantRegistry,
    Violation,
    default_registry,
    run_validation,
)
from repro.core.taxonomy import (
    MISCONFIG_LABELS,
    MISCONFIG_PROTOCOL,
    AttackType,
    Misconfig,
    TrafficClass,
)

__all__ = [
    "AttackType",
    "FidelityReport",
    "FidelityRow",
    "score_study",
    "Invariant",
    "InvariantRegistry",
    "JournalMetric",
    "MISCONFIG_LABELS",
    "MISCONFIG_PROTOCOL",
    "Misconfig",
    "PhaseCache",
    "PhaseGraph",
    "PhaseMetric",
    "PhaseSpec",
    "QuarantineRecord",
    "Study",
    "StudyConfig",
    "StudyEngine",
    "StudyMetrics",
    "StudyResults",
    "TaskDeadline",
    "TaskJournal",
    "TaskStall",
    "TrafficClass",
    "Violation",
    "apportion",
    "build_study_graph",
    "config_fingerprint",
    "default_cache",
    "default_registry",
    "quarantine_file",
    "run_validation",
    "unwrap_envelope",
    "wrap_envelope",
    "format_table",
    "render_case_studies",
    "render_figure2",
    "render_figure7",
    "render_figure8",
    "render_figure9",
    "render_intersection",
    "render_table4",
    "render_table5",
    "render_table6",
    "render_table7",
    "render_table8",
    "render_table10",
    "scale_count",
]
