"""Industrial-protocol traffic analysis — Section 5.1.4 quantified.

Conpot's Modbus/S7 surfaces drew three observations in the paper:

* poisoning attacks "tried to access and change the values stored in the
  registers";
* "the attacks targeted three of the nineteen available function codes"
  — device identification, the holding registers, and report-server-id;
* "Only 10% of the Modbus traffic used valid function codes";
* S7 DoS flooding via PDU-type-1 job requests (ICSA-16-299-01).

:func:`analyze_ics_traffic` recovers all of these from the deployment's
Modbus/S7 servers and the event log — the server counters are observables
(a real Conpot logs exactly these), not simulation ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.taxonomy import AttackType
from repro.honeypots.base import HoneypotDeployment
from repro.honeypots.events import EventStore
from repro.protocols.base import ProtocolId
from repro.protocols.modbus import ModbusServer
from repro.protocols.s7 import S7Server

__all__ = ["IcsTrafficReport", "analyze_ics_traffic"]


@dataclass
class IcsTrafficReport:
    """The §5.1.4 observables."""

    modbus_valid_requests: int = 0
    modbus_invalid_requests: int = 0
    modbus_register_writes: int = 0
    s7_job_floods: int = 0          # DoS-classified S7 sessions
    s7_register_writes: int = 0
    s7_read_requests: int = 0
    modbus_poisoning_events: int = 0
    s7_poisoning_events: int = 0

    @property
    def modbus_valid_fraction(self) -> float:
        """Share of Modbus requests using valid function codes (the paper
        reports ~10%)."""
        total = self.modbus_valid_requests + self.modbus_invalid_requests
        return self.modbus_valid_requests / total if total else 0.0


def analyze_ics_traffic(
    deployment: HoneypotDeployment,
    log: Optional[EventStore] = None,
) -> IcsTrafficReport:
    """Aggregate the ICS observables from the Conpot-style honeypots."""
    report = IcsTrafficReport()
    for honeypot in deployment.honeypots:
        for server in honeypot.services.values():
            if isinstance(server, ModbusServer):
                report.modbus_valid_requests += server.valid_function_requests
                report.modbus_invalid_requests += (
                    server.invalid_function_requests)
                report.modbus_poisoning_events += server.poison_events
                report.modbus_register_writes += server.poison_events
            elif isinstance(server, S7Server):
                report.s7_read_requests += server.read_requests
                report.s7_register_writes += server.write_requests
                report.s7_poisoning_events += server.write_requests
    if log is not None:
        report.s7_job_floods = log.count_by_type(ProtocolId.S7).get(
            AttackType.DOS_FLOOD, 0
        )
    return report
