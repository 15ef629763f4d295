"""The online operators the streaming service feeds, in one namespace.

Each paper analysis is one operator class, defined next to its report
type; its batch entry point is that operator fed the whole store once
(see :mod:`repro.core.operator`).  This module gathers them for the
event bus, the control API and the tests.
"""

from __future__ import annotations

from repro.analysis.attack_origins import AttackOriginsOperator
from repro.analysis.country import CountryOperator
from repro.analysis.device_type import DeviceTypeOperator
from repro.analysis.misconfig import MisconfigOperator
from repro.analysis.recurrence import RecurrenceOperator
from repro.core.operator import Operator, OperatorBase, snapshot_digest
from repro.telescope.rsdos import RsdosOperator

__all__ = [
    "Operator",
    "OperatorBase",
    "MisconfigOperator",
    "DeviceTypeOperator",
    "CountryOperator",
    "AttackOriginsOperator",
    "RecurrenceOperator",
    "RsdosOperator",
    "snapshot_digest",
]
