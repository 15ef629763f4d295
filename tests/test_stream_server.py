"""The HTTP control surface, exercised over real sockets with urllib."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.net.errors import ServeError
from repro.stream import ControlServer, StreamConfig


@pytest.fixture(scope="module")
def server():
    server = ControlServer(port=0).start()
    yield server
    server.shutdown()


def url(server, path):
    return f"http://127.0.0.1:{server.port}{path}"


def get(server, path):
    with urllib.request.urlopen(url(server, path), timeout=30) as response:
        return response.status, json.loads(response.read())


def post(server, path, body=None, raw=None):
    data = raw if raw is not None else json.dumps(body or {}).encode()
    request = urllib.request.Request(
        url(server, path), data=data, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def wait_done(server, campaign_id, timeout=180):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = get(server, f"/campaigns/{campaign_id}/status")
        if status["state"] in ("done", "failed", "stopped"):
            return status
        time.sleep(0.1)
    raise AssertionError(f"campaign {campaign_id} never finished")


class TestControlApi:
    def test_start_status_tail_roundtrip(self, server):
        code, started = post(server, "/sim/start",
                             {"seed": 7, "scale": 16384})
        assert code == 200
        campaign_id = started["campaign"]
        assert started["seed"] == 7
        status = wait_done(server, campaign_id)
        assert status["state"] == "done", status
        assert set(status["final_digests"]) == {
            "misconfig", "device_type", "country", "attack_origins",
            "recurrence", "rsdos",
        }
        assert status["events_streamed"] > 0

        with urllib.request.urlopen(
            url(server, f"/campaigns/{campaign_id}/tail"), timeout=30
        ) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            body = response.read().decode()
        kinds = {line for line in body.splitlines()
                 if line.startswith("event: ")}
        assert kinds == {"event: event", "event: alert", "event: end"}
        end_payload = json.loads(
            body.split("event: end\ndata: ", 1)[1].split("\n", 1)[0]
        )
        assert end_payload["state"] == "done"

    def test_tail_cursor_resume(self, server):
        code, started = post(server, "/sim/start",
                             {"seed": 11, "scale": 16384})
        campaign_id = started["campaign"]
        status = wait_done(server, campaign_id)
        events_total = status["events_streamed"]
        assert events_total > 0
        # A cursor past everything sees only the end event.
        with urllib.request.urlopen(
            url(server, f"/campaigns/{campaign_id}/tail"
                        "?events=999999999&alerts=999999999"),
            timeout=30,
        ) as response:
            body = response.read().decode()
        assert "event: end" in body
        assert "event: event\n" not in body

    def test_stop_route(self, server):
        code, started = post(
            server, "/sim/start",
            {"seed": 7, "scale": 16384, "events_per_second": 10,
             "batch_size": 8},
        )
        campaign_id = started["campaign"]
        code, stopped = post(server, "/sim/stop",
                             {"campaign": campaign_id})
        assert code == 200
        status = wait_done(server, campaign_id)
        assert status["state"] in ("stopped", "done")

    def test_unknown_campaign_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/campaigns/nope/status")
        assert excinfo.value.code == 404

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/what/is/this")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/sim/launch")
        assert excinfo.value.code == 404

    def test_bad_json_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/sim/start", raw=b"{not json")
        assert excinfo.value.code == 400

    def test_non_object_body_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/sim/start", raw=b"[1, 2]")
        assert excinfo.value.code == 400

    def test_bad_config_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/sim/start", {"seed": -5})
        assert excinfo.value.code == 400


class TestTailLagRecovery:
    def test_lagging_cursor_gets_lag_event_then_oldest_onward(self):
        """A cursor behind the events ring's retention window: exactly
        one ``lag`` frame, then every retained event once (resume from
        ``oldest``), then ``end`` — nothing skipped twice or silently."""
        server = ControlServer(
            port=0,
            stream_defaults=StreamConfig(event_capacity=16),
        ).start()
        try:
            _, started = post(server, "/sim/start",
                              {"seed": 7, "scale": 16384})
            campaign_id = started["campaign"]
            status = wait_done(server, campaign_id, timeout=240)
            assert status["state"] == "done", status
            assert status["events_streamed"] > 16

            # The supervision roll-up rides along in the status poll.
            rollup = status["metrics"]
            assert rollup["supervisor"]["pool_restarts"] == 0
            assert rollup["quarantined"] == 0
            assert rollup["bus"]["published"] == status["events_streamed"]
            assert rollup["bus"]["events_evicted"] > 0  # tiny ring

            # Cursor 1 lags: the ring only retains the last 16 events.
            with urllib.request.urlopen(
                url(server, f"/campaigns/{campaign_id}/tail?events=1"),
                timeout=30,
            ) as response:
                body = response.read().decode()

            frames = [
                frame.split("\ndata: ", 1)
                for frame in body.split("\n\n")
                if frame.startswith("event: ")
            ]
            lags = [json.loads(data) for kind, data in frames
                    if kind == "event: lag"]
            events = [json.loads(data) for kind, data in frames
                      if kind == "event: event"]
            ends = [json.loads(data) for kind, data in frames
                    if kind == "event: end"]

            assert len(ends) == 1
            ring_total = ends[0]["events_total"]
            assert ring_total > 16, "ring never overflowed"
            assert len(lags) == 1
            lag = lags[0]
            assert lag["stream"] == "events"
            # The ring retains its last 16 items; cursor 1 missed
            # everything before that window.
            assert lag["oldest"] == ring_total - 16
            assert lag["dropped"] == lag["oldest"] - 1
            # Resumed from the oldest retained item: exactly the
            # retained window, each event once.
            assert len(events) == ring_total - lag["oldest"]

            # A fresh, in-window cursor sees no lag frame at all.
            with urllib.request.urlopen(
                url(server,
                    f"/campaigns/{campaign_id}/tail?events={ring_total}"),
                timeout=30,
            ) as response:
                clean = response.read().decode()
            assert "event: lag" not in clean
            assert "event: event\n" not in clean
        finally:
            server.shutdown()


class TestServerLifecycle:
    def test_ephemeral_port_bound(self):
        server = ControlServer(port=0)
        try:
            assert server.port > 0
            assert server.host == "127.0.0.1"
        finally:
            server.shutdown()

    def test_bind_conflict_raises_serve_error(self):
        first = ControlServer(port=0)
        try:
            with pytest.raises(ServeError):
                ControlServer(port=first.port)
        finally:
            first.shutdown()

    def test_stream_defaults_flow_into_campaigns(self):
        server = ControlServer(
            port=0, stream_defaults=StreamConfig(batch_size=64)
        ).start()
        try:
            code, started = post(server, "/sim/start",
                                 {"seed": 7, "scale": 16384})
            campaign_id = started["campaign"]
            status = wait_done(server, campaign_id)
            assert status["batch_size"] == 64
            assert status["state"] == "done"
        finally:
            server.shutdown()
