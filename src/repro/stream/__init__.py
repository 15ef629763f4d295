"""Streaming campaign service: online operators, event bus, control API.

The batch study answers "what did the month look like?"; this package
answers it *while the month happens*.  Three layers:

* :mod:`repro.stream.operators` — the analyses' online operators
  (misconfig, device types, countries, attack origins, recurrence,
  RSDoS); each batch analysis is its operator fed the whole store once,
  and chunked feeding yields the same snapshot.
* :mod:`repro.stream.bus` — the event bus fanning row batches into the
  operators plus bounded cursor-addressed rings of recent events and
  alerts.
* :mod:`repro.stream.service` / :mod:`repro.stream.server` — the paced
  campaign driver (simulated clock, day-boundary alerts) and the
  stdlib HTTP control surface behind ``repro serve``.
"""

from repro.stream.bus import Alert, EventBus, RingBuffer
from repro.stream.operators import (
    AttackOriginsOperator,
    CountryOperator,
    DeviceTypeOperator,
    MisconfigOperator,
    Operator,
    OperatorBase,
    RecurrenceOperator,
    RsdosOperator,
    snapshot_digest,
)
from repro.stream.server import ControlServer
from repro.stream.service import (
    CampaignService,
    StreamConfig,
    default_operators,
    snapshots_match_batch,
)

__all__ = [
    "Alert",
    "EventBus",
    "RingBuffer",
    "Operator",
    "OperatorBase",
    "MisconfigOperator",
    "DeviceTypeOperator",
    "CountryOperator",
    "AttackOriginsOperator",
    "RecurrenceOperator",
    "RsdosOperator",
    "snapshot_digest",
    "CampaignService",
    "StreamConfig",
    "default_operators",
    "snapshots_match_batch",
    "ControlServer",
]
