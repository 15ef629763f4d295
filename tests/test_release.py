"""The 2.0 release: one version string, and the surface it removed."""

import re
from pathlib import Path

import pytest

import repro
import repro.honeypots
from repro.attacks.schedule import AttackScheduler
from repro.core import columns
from repro.honeypots import events
from repro.honeypots.events import EventStore
from repro.scanner.records import ScanDatabase
from repro.scanner.zmap import InternetScanner
from repro.telescope.telescope import NetworkTelescope

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_version_matches_package_version():
    match = re.search(
        r'^version\s*=\s*"([^"]+)"', _PYPROJECT.read_text(), re.MULTILINE
    )
    assert match is not None
    assert match.group(1) == repro.__version__


class TestRemovedSurface:
    """Names deleted in 2.0: the serial reference paths (their byte oracles
    live under ``tests/oracles/``) and the deprecation shims."""

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
    ])
    def test_name_is_gone(self, owner, name):
        assert not hasattr(owner, name)

    def test_run_task_has_no_batch_option(self):
        with pytest.raises(TypeError, match="batch"):
            AttackScheduler._run_task(None, None, 0, [], batch=False)
