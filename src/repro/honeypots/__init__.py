"""Lab honeypots: the six-deployment of Table 7 with event logging."""

from repro.honeypots.base import HoneypotDeployment, LabHoneypot, SessionTranscript
from repro.honeypots.classify import FLOOD_SESSION_THRESHOLD, classify_session
from repro.honeypots.deployment import HONEYPOT_NAMES, build_deployment
from repro.honeypots.events import AttackEvent, EventStore
from repro.honeypots.multistage_monitor import MultistageAlert, MultistageMonitor
from repro.honeypots.pcap import (
    PayloadFinding,
    PcapCapture,
    PcapPacket,
    PcapWriter,
    analyze_payloads,
    read_pcap,
)

__all__ = [
    "AttackEvent",
    "EventStore",
    "FLOOD_SESSION_THRESHOLD",
    "HONEYPOT_NAMES",
    "HoneypotDeployment",
    "LabHoneypot",
    "MultistageAlert",
    "MultistageMonitor",
    "PayloadFinding",
    "PcapCapture",
    "PcapPacket",
    "PcapWriter",
    "analyze_payloads",
    "read_pcap",
    "SessionTranscript",
    "build_deployment",
    "classify_session",
]
