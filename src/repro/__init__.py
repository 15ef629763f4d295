"""repro — a simulated-Internet reproduction of "Open for hire: attack
trends and misconfiguration pitfalls of IoT devices" (IMC 2021).

The package rebuilds the paper's three measurement apparatuses on a
deterministic synthetic IPv4 world: Internet-wide protocol scanning with
misconfiguration classification and honeypot fingerprinting, a six-honeypot
lab observed for one simulated month, and a /8 network-telescope capture —
plus the cross-experiment joins (GreyNoise/VirusTotal validation and the
infected-device intersection).

Quickstart::

    from repro import Study, StudyConfig
    results = Study(StudyConfig.quick()).run()
    print(results.misconfig.total, "misconfigured devices")
"""

from repro.core.config import StudyConfig
from repro.core.engine import PhaseCache, StudyEngine
from repro.core.errors import ExitCode
from repro.core.metrics import StudyMetrics
from repro.core.study import Study, StudyResults
from repro.core.validate import Violation, default_registry, run_validation
from repro.net.errors import (
    ConfigError,
    EnvelopeError,
    PhaseOrderError,
    ReproError,
    ServeError,
    TaskDeadlineError,
    ValidationError,
)

__version__ = "2.0.0"

__all__ = [
    "ConfigError",
    "EnvelopeError",
    "ExitCode",
    "PhaseCache",
    "PhaseOrderError",
    "ReproError",
    "ServeError",
    "Study",
    "StudyConfig",
    "StudyEngine",
    "StudyMetrics",
    "StudyResults",
    "TaskDeadlineError",
    "ValidationError",
    "Violation",
    "default_registry",
    "run_validation",
    "__version__",
]
