"""Scan-rate model — the Appendix Table 9 calendar, explained.

The paper's six Internet-wide scans ran March 1-5, 2021 from one university
host (Appendix A.1/A.3).  This module models what that schedule implies:
given a probe rate (ZMap saturates ~1.4 Mpps on gigabit uplinks; research
scans typically throttle far below), per-protocol target counts (the
routable space × ports per protocol) and banner-grab costs, it estimates
per-protocol scan durations and lays the campaign out over calendar days —
reproducing why CoAP could start March 1 and everything still finished
within the week.

It also answers the planning question a reproducer faces: what probe rate
does a deadline imply?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.errors import ConfigError
from repro.protocols.base import DEFAULT_PORTS, ProtocolId, TransportKind, transport_of
from repro.scanner.zmap import SCAN_START_DAY, scan_start_day

__all__ = ["ScanRatePlan", "ScanRateModel", "ROUTABLE_IPV4_ADDRESSES"]

#: Routable IPv4 space after the default blocklist (~3.7 B addresses).
ROUTABLE_IPV4_ADDRESSES = 3_700_000_000

_SECONDS_PER_DAY = 86_400


@dataclass
class ScanRatePlan:
    """One protocol's scan, as planned."""

    protocol: ProtocolId
    probes: int
    sweep_seconds: float
    grab_seconds: float
    start_day: int

    @property
    def total_seconds(self) -> float:
        """Sweep plus application-layer grab time."""
        return self.sweep_seconds + self.grab_seconds


class ScanRateModel:
    """Estimates campaign timing from probe rates and response rates.

    Parameters
    ----------
    probe_rate:
        L4 probes per second the scanner sustains (the paper-era ZMap
        default for polite university scanning is ~100 kpps).
    responsive_fraction:
        Fraction of probed addresses that answer and therefore need an
        application-layer grab (Table 4: ~14.4 M of 3.7 B ≈ 0.4%, spread
        over six protocols).
    grab_rate:
        Concurrent application-layer grabs per second (ZGrab handshakes
        are stateful and much slower than SYN probes).
    """

    def __init__(
        self,
        probe_rate: float = 100_000,
        responsive_fraction: float = 0.0008,
        grab_rate: float = 2_000,
        address_space: int = ROUTABLE_IPV4_ADDRESSES,
    ) -> None:
        if probe_rate <= 0 or grab_rate <= 0:
            raise ConfigError("rates must be positive")
        if not 0 <= responsive_fraction <= 1:
            raise ConfigError("responsive_fraction must be in [0, 1]")
        self.probe_rate = probe_rate
        self.responsive_fraction = responsive_fraction
        self.grab_rate = grab_rate
        self.address_space = address_space

    def probes_for(self, protocol: ProtocolId) -> int:
        """L4 probes one protocol sweep emits (space × ports)."""
        return self.address_space * len(DEFAULT_PORTS[protocol])

    def plan_protocol(self, protocol: ProtocolId) -> ScanRatePlan:
        """Duration estimate for one protocol."""
        probes = self.probes_for(protocol)
        sweep_seconds = probes / self.probe_rate
        # UDP scans carry the application probe in the sweep itself; TCP
        # protocols need the second, stateful grab stage.
        if transport_of(protocol) == TransportKind.UDP:
            grab_seconds = 0.0
        else:
            responsive = probes * self.responsive_fraction
            grab_seconds = responsive / self.grab_rate
        return ScanRatePlan(
            protocol=protocol,
            probes=probes,
            sweep_seconds=sweep_seconds,
            grab_seconds=grab_seconds,
            start_day=scan_start_day(protocol),
        )

    def plan_campaign(
        self, protocols: Optional[List[ProtocolId]] = None
    ) -> List[ScanRatePlan]:
        """Plans for the whole campaign, in start order."""
        protocols = protocols or list(SCAN_START_DAY)
        plans = [self.plan_protocol(protocol) for protocol in protocols]
        return sorted(plans, key=lambda plan: plan.start_day)

    def campaign_days(
        self, protocols: Optional[List[ProtocolId]] = None
    ) -> float:
        """Wall-clock days until the last scan completes (scans on the same
        host run sequentially within a day slot, as the calendar implies)."""
        plans = self.plan_campaign(protocols)
        finish = 0.0
        cursor = 0.0
        for plan in plans:
            cursor = max(cursor, float(plan.start_day))
            cursor += plan.total_seconds / _SECONDS_PER_DAY
            finish = max(finish, cursor)
        return finish

    def required_rate_for_deadline(
        self,
        deadline_days: float,
        protocols: Optional[List[ProtocolId]] = None,
    ) -> float:
        """Probe rate needed to finish the campaign inside a deadline.

        A simple upper-bound inversion: total probes over the usable time
        (ignores the grab stage, which parallelises independently).
        """
        if deadline_days <= 0:
            raise ConfigError("deadline must be positive")
        protocols = protocols or list(SCAN_START_DAY)
        total_probes = sum(self.probes_for(protocol) for protocol in protocols)
        return total_probes / (deadline_days * _SECONDS_PER_DAY)
