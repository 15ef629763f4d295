"""The 2.0 release: one version string, and the surface it removed."""

import re
from pathlib import Path

import pytest

import repro
import repro.honeypots
from repro.attacks.actors import ActorRegistry
from repro.attacks.schedule import AttackScheduler
from repro.core import columns, metrics, tasks
from repro.core.config import StudyConfig
from repro.core.metrics import StudyMetrics
from repro.honeypots import events
from repro.honeypots.base import HoneypotDeployment, SessionTranscript
from repro.honeypots.events import EventStore
from repro.intel.censysiot import CensysIotDB
from repro.intel.greynoise import GreyNoiseDB
from repro.protocols import base as protocols_base
from repro.scanner import probes, records
from repro.scanner.rate import ScanRatePlan
from repro.scanner.records import ScanDatabase
from repro.scanner.zmap import InternetScanner
from repro.telescope import flowtuple
from repro.telescope.flowtuple import FlowTupleWriter
from repro.telescope.telescope import NetworkTelescope

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_version_matches_package_version():
    match = re.search(
        r'^version\s*=\s*"([^"]+)"', _PYPROJECT.read_text(), re.MULTILINE
    )
    assert match is not None
    assert match.group(1) == repro.__version__


class TestRemovedSurface:
    """Names deleted since 2.0: the serial reference paths (their byte
    oracles live under ``tests/oracles/``), the deprecation shims, the
    second description of a task batch and its metric copies, the
    write-through row views of the scan and attack stores, public
    methods nothing called, the hooks only the deleted multi-campaign
    scheduler used, and the telescope's own chunked store and the store
    protocol it shared with the ``ColumnTable`` stores."""

    @pytest.mark.parametrize("owner, name", [
        pytest.param(AttackScheduler, "run_reference",
                     id="AttackScheduler.run_reference"),
        pytest.param(NetworkTelescope, "capture_month_reference",
                     id="NetworkTelescope.capture_month_reference"),
        pytest.param(InternetScanner, "scan_protocol",
                     id="InternetScanner.scan_protocol"),
        pytest.param(ScanDatabase, "records", id="ScanDatabase.records"),
        pytest.param(EventStore, "events", id="EventStore.events"),
        pytest.param(events, "EventLog",
                     id="repro.honeypots.events.EventLog"),
        pytest.param(repro.honeypots, "EventLog",
                     id="repro.honeypots.EventLog"),
        pytest.param(columns, "_warn_deprecated",
                     id="repro.core.columns._warn_deprecated"),
        pytest.param(AttackScheduler, "_run_task",
                     id="AttackScheduler._run_task"),
        pytest.param(tasks, "ProcessPlan", id="repro.core.tasks.ProcessPlan"),
        pytest.param(metrics, "ExecutorMetric",
                     id="repro.core.metrics.ExecutorMetric"),
        pytest.param(metrics, "SupervisorMetric",
                     id="repro.core.metrics.SupervisorMetric"),
        pytest.param(protocols_base, "first_line",
                     id="repro.protocols.base.first_line"),
        pytest.param(CensysIotDB, "iot_hosts", id="CensysIotDB.iot_hosts"),
        pytest.param(GreyNoiseDB, "benign_sources",
                     id="GreyNoiseDB.benign_sources"),
        pytest.param(EventStore, "sources_by_actor_kind",
                     id="EventStore.sources_by_actor_kind"),
        pytest.param(events, "EventRow",
                     id="repro.honeypots.events.EventRow"),
        pytest.param(records, "ScanRow", id="repro.scanner.records.ScanRow"),
        pytest.param(ScanDatabase, "by_protocol",
                     id="ScanDatabase.by_protocol"),
        pytest.param(ScanDatabase, "records_for",
                     id="ScanDatabase.records_for"),
        pytest.param(ScanDatabase, "filter", id="ScanDatabase.filter"),
        pytest.param(ScanDatabase, "append_row",
                     id="ScanDatabase.append_row"),
        pytest.param(EventStore, "append_event",
                     id="EventStore.append_event"),
        pytest.param(EventStore, "group_by_source",
                     id="EventStore.group_by_source"),
        pytest.param(SessionTranscript, "requests_text",
                     id="SessionTranscript.requests_text"),
        pytest.param(SessionTranscript, "replies_text",
                     id="SessionTranscript.replies_text"),
        pytest.param(HoneypotDeployment, "honeypot_at",
                     id="HoneypotDeployment.honeypot_at"),
        pytest.param(ActorRegistry, "censys_iot_sources",
                     id="ActorRegistry.censys_iot_sources"),
        pytest.param(ScanRatePlan, "end_day", id="ScanRatePlan.end_day"),
        pytest.param(probes, "next_probe",
                     id="repro.scanner.probes.next_probe"),
        pytest.param(tasks, "task_checkpoint",
                     id="repro.core.tasks.task_checkpoint"),
        pytest.param(StudyConfig, "quarantine_namespace",
                     id="StudyConfig.quarantine_namespace"),
        pytest.param(StudyMetrics, "summary", id="StudyMetrics.summary"),
        pytest.param(flowtuple, "FlowBlock",
                     id="repro.telescope.flowtuple.FlowBlock"),
        pytest.param(columns, "ColumnStore",
                     id="repro.core.columns.ColumnStore"),
        pytest.param(FlowTupleWriter, "records",
                     id="FlowTupleWriter.records"),
    ])
    def test_name_is_gone(self, owner, name):
        assert not hasattr(owner, name)
