"""Appendix Table 9 bench — the March 1-5 scan calendar, reproduced twice.

1. Rate model: at a realistic probe rate the six-protocol campaign fits
   the paper's one-week window, with CoAP starting first (March 1) and
   XMPP last (March 5).
2. Timestamps: the simulated scan records carry per-protocol start days
   matching Table 9.
"""

from repro.protocols.base import ProtocolId
from repro.scanner.rate import ScanRateModel
from repro.scanner.zmap import SCAN_START_DAY

from conftest import compare

_CALENDAR = {
    ProtocolId.COAP: "1 March 2021",
    ProtocolId.UPNP: "2 March 2021",
    ProtocolId.TELNET: "2 March 2021",
    ProtocolId.MQTT: "4 March 2021",
    ProtocolId.AMQP: "4 March 2021",
    ProtocolId.XMPP: "5 March 2021",
}


def test_scan_calendar(benchmark, study):
    model = ScanRateModel(probe_rate=300_000)
    plans = benchmark.pedantic(model.plan_campaign, rounds=1, iterations=1)

    rows = []
    for plan in plans:
        rows.append((
            f"{plan.protocol} start",
            _CALENDAR[plan.protocol],
            f"day {plan.start_day + 1} "
            f"({plan.total_seconds / 3600:.1f}h scan)",
        ))
    rows.append(("campaign length", "within one week",
                 f"{model.campaign_days():.1f} days"))
    compare("Appendix Table 9: scan calendar", rows)

    # Table 9's ordering: CoAP first, XMPP last.
    assert plans[0].protocol == ProtocolId.COAP
    assert plans[-1].protocol == ProtocolId.XMPP
    assert model.campaign_days() < 7.0

    # The simulated scan's record timestamps carry the same calendar.
    for protocol, start_day in SCAN_START_DAY.items():
        records = study.zmap_db.where(protocol=protocol)
        assert records, protocol
        assert records.row(0).timestamp == start_day * 86_400
