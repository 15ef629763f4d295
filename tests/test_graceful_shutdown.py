"""Graceful shutdown and admission control on the serving surface.

Two contracts from the supervised-runtime work: the control API refuses
work past ``max_campaigns`` with a ``503`` + ``Retry-After`` instead of
degrading everyone, and ``repro serve`` treats SIGTERM as "drain and
exit 0" — the container-orchestrator handshake.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.net.errors import ConfigError, ServiceBusyError
from repro.stream import ControlServer

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _post(port, path, body=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body or {}).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=30
    ) as response:
        return response.status, json.loads(response.read())


class TestMaxCampaigns:
    def test_busy_server_returns_503_with_retry_after(self):
        server = ControlServer(port=0, max_campaigns=1, retry_after=7).start()
        try:
            # Paced so the campaign still holds its slot when the second
            # start arrives: a warm phase cache generates the quick study
            # at once, and its ~15k rows then stream for at least 7.5 s.
            code, started = _post(
                server.port, "/sim/start",
                {"seed": 7, "events_per_second": 2000},
            )
            assert code == 200
            campaign = started["campaign"]

            with pytest.raises(urllib.error.HTTPError) as caught:
                _post(server.port, "/sim/start", {"seed": 8})
            assert caught.value.code == 503
            assert caught.value.headers["Retry-After"] == "7"
            body = json.loads(caught.value.read())
            assert body["retry_after"] == 7
            assert "campaign limit" in body["error"]

            deadline = time.monotonic() + 180
            while time.monotonic() < deadline:
                _, status = _get(
                    server.port, f"/campaigns/{campaign}/status"
                )
                if status["state"] in ("done", "failed", "stopped"):
                    break
                time.sleep(0.1)
            assert status["state"] == "done", status

            # A finished campaign frees its admission slot.
            code, _ = _post(server.port, "/sim/start", {"seed": 9})
            assert code == 200
        finally:
            server.shutdown()

    def test_unlimited_by_default_and_validated(self):
        with pytest.raises(ConfigError):
            ControlServer(port=0, max_campaigns=0)
        error = ServiceBusyError("busy", retry_after=12.5)
        assert error.retry_after == 12.5


class TestServeSigterm:
    def test_sigterm_mid_campaign_drains_and_exits_zero(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(_REPO, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=_REPO, env=env, text=True, bufsize=1,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no port in serve banner: {banner!r}"
            port = int(match.group(1))

            code, started = _post(port, "/sim/start", {"seed": 7})
            assert code == 200 and started["campaign"]

            proc.send_signal(signal.SIGTERM)  # mid-campaign
            output, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, output
        assert "shutting down" in output
