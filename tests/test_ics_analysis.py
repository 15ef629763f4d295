"""Tests for the §5.1.4 industrial-protocol traffic analysis."""

import pytest

from repro.analysis.ics import analyze_ics_traffic
from repro.honeypots.deployment import build_deployment
from repro.net.ipv4 import ip_to_int
from repro.protocols.base import ProtocolId
from repro.protocols.modbus import (
    FUNC_READ_DEVICE_ID,
    FUNC_WRITE_SINGLE,
    encode_request,
)
from repro.protocols.s7 import (
    S7_FUNC_WRITE_VAR,
    cotp_connect_request,
    s7_job_request,
)

SRC = ip_to_int("7.7.7.7")


def _drive(honeypot, protocol, payloads):
    """Drive one TCP session straight against a honeypot service."""
    server = honeypot.services[honeypot.ports_for(protocol)[0]]
    session = server.open_session(peer=SRC)
    server.accept(session)
    for payload in payloads:
        if server.handle(payload, session).close:
            break


class TestIcsAnalysis:
    def test_counters_aggregate_from_conpot(self):
        deployment = build_deployment()
        conpot = deployment.get("Conpot")
        # Two valid requests, one invalid, one write.
        _drive(conpot, ProtocolId.MODBUS, [
            encode_request(1, 1, FUNC_READ_DEVICE_ID),
            encode_request(2, 1, 0x63),  # undefined function
            encode_request(3, 1, FUNC_WRITE_SINGLE,
                           (0).to_bytes(2, "big") + (7).to_bytes(2, "big")),
        ])
        _drive(conpot, ProtocolId.S7, [
            cotp_connect_request(),
            s7_job_request(S7_FUNC_WRITE_VAR, b"\x01"),
        ])
        report = analyze_ics_traffic(deployment)
        assert report.modbus_valid_requests == 2  # device id + write
        assert report.modbus_invalid_requests == 1
        assert report.modbus_register_writes == 1
        assert report.s7_register_writes == 1

    def test_empty_lab(self):
        report = analyze_ics_traffic(build_deployment())
        assert report.modbus_valid_fraction == 0.0
        assert report.s7_job_floods == 0

    def test_study_reproduces_ten_percent_valid(self, quick_study):
        """§5.1.4: only ~10% of Modbus traffic uses valid function codes."""
        report = analyze_ics_traffic(
            quick_study.deployment, quick_study.schedule.log
        )
        total = report.modbus_valid_requests + report.modbus_invalid_requests
        assert total > 0
        # Scanning probes are ~90% invalid; poisoning sessions add valid
        # writes, so the aggregate sits somewhat above the scan-only 10%.
        assert 0.05 < report.modbus_valid_fraction < 0.8

    def test_study_s7_floods_present(self, quick_study):
        report = analyze_ics_traffic(
            quick_study.deployment, quick_study.schedule.log
        )
        assert report.s7_job_floods > 0
        assert report.s7_register_writes > 0
