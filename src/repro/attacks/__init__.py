"""Attack generation: actors, payloads, plans, schedules, malware, credentials."""

from repro.attacks.actors import ActorRegistry, SourceInfo
from repro.attacks.credentials import (
    SSH_CREDENTIALS,
    TELNET_CREDENTIALS,
    CredentialUse,
    sample_credentials,
)
from repro.attacks.malware import (
    FAMILY_BY_PROTOCOL,
    KNOWN_SAMPLES,
    MalwareCorpus,
    MalwareSample,
)
from repro.attacks.payloads import build_payloads
from repro.attacks.scanning_services import (
    SCANNING_SERVICES,
    ScanningService,
    service_by_name,
)
from repro.attacks.plan import (
    MALICIOUS_TYPE_MIX,
    MULTISTAGE_SEQUENCES,
    PAPER_HONEYPOT_EVENTS,
    PAPER_HONEYPOT_SOURCES,
)
from repro.attacks.schedule import (
    AttackScheduleConfig,
    AttackScheduler,
    ScheduleResult,
)

__all__ = [
    "ActorRegistry",
    "AttackScheduleConfig",
    "AttackScheduler",
    "CredentialUse",
    "FAMILY_BY_PROTOCOL",
    "KNOWN_SAMPLES",
    "MALICIOUS_TYPE_MIX",
    "MULTISTAGE_SEQUENCES",
    "MalwareCorpus",
    "MalwareSample",
    "PAPER_HONEYPOT_EVENTS",
    "PAPER_HONEYPOT_SOURCES",
    "SCANNING_SERVICES",
    "SSH_CREDENTIALS",
    "ScanningService",
    "ScheduleResult",
    "SourceInfo",
    "TELNET_CREDENTIALS",
    "build_payloads",
    "sample_credentials",
    "service_by_name",
]
