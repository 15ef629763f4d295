"""The stdlib-only control surface for streaming campaigns.

:class:`ControlServer` wraps :class:`http.server.ThreadingHTTPServer`
(no third-party web framework — the repo's no-new-dependencies rule
applies to the service too) and exposes four routes:

``POST /sim/start``
    Body (optional JSON): ``{"seed": 7, "scale": 8192,
    "events_per_second": 0, "batch_size": 256, "queue_capacity": 0,
    "publish_policy": "block"}``.  Builds a
    :class:`~repro.stream.service.CampaignService` from the server's
    config factory and starts it on a background thread.  Returns
    ``{"campaign": "c1", "state": "pending"}`` — or ``503`` with a
    ``Retry-After`` header when ``max_campaigns`` campaigns are already
    active.

``POST /sim/stop``
    Body: ``{"campaign": "c1"}`` (or empty to stop the latest).  Asks
    the campaign to stop at the next chunk boundary.

``GET /campaigns/<id>/status``
    The service's status document: state, per-plane progress, simulated
    clock, alert/event counters, final snapshot digests once done.

``GET /campaigns/<id>/tail``
    Server-sent events (chunked ``text/event-stream``): ``event:``
    lines for recent plane rows, ``alert:`` lines for the incident
    ring, one ``end`` event when the campaign reaches a terminal state
    and the rings are drained.  Cursor query params (``?events=N&
    alerts=M``) resume a dropped connection; a cursor that lags the
    ring's retention window gets a ``lag`` event naming the drop count
    and resumes from the oldest retained item.

Overload and disconnect behavior: client sockets carry a per-connection
write timeout (``write_timeout``), disconnects and timeouts mid-tail are
silent (no stack traces from the threading server) and unsubscribe the
client from the tail registry, and :meth:`ControlServer.shutdown` drains
active SSE clients before closing the listener.

Everything here is deliberately tiny and dependency-free; the
interesting machinery lives in :mod:`repro.stream.service`.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.core.config import StudyConfig
from repro.net.errors import (
    ConfigError,
    CursorLagError,
    ReproError,
    ServeError,
    ServiceBusyError,
)
from repro.stream.service import CampaignService, StreamConfig

__all__ = ["ControlServer", "default_config_factory"]

#: Socket errors that mean "the client went away" — routine for SSE
#: tails, never worth a stack trace on the server console.
_DISCONNECT_ERRORS = (
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
    socket.timeout,
    TimeoutError,
)


def default_config_factory(request: Dict[str, Any]) -> StudyConfig:
    """Build a quick-profile StudyConfig from a /sim/start body.

    Honors ``seed`` and ``scale`` (world population scale, 1:N); every
    other generation knob stays at the quick profile the tests use.
    """
    seed = int(request.get("seed", 7))
    config = StudyConfig.quick(seed=seed)
    scale = request.get("scale")
    if scale is not None:
        config.population.scale = int(scale)
        config.population.validate()
    return config


class _QuietThreadingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that treats client disconnects as routine.

    The stock ``handle_error`` prints a full traceback for *any*
    exception escaping a handler thread — including the inevitable
    ``BrokenPipeError`` when an SSE client closes its end mid-write.
    Those are expected churn for a tail endpoint; real errors still get
    the standard report.
    """

    daemon_threads = True

    def handle_error(self, request: Any, client_address: Any) -> None:
        error = sys.exc_info()[1]
        if isinstance(error, _DISCONNECT_ERRORS):
            return
        super().handle_error(request, client_address)


class ControlServer:
    """Owns the HTTP listener and the campaign registry.

    ``port=0`` binds an ephemeral port (the bound port is readable from
    ``server.port`` afterwards — the tests and the CI smoke job use
    that).  ``serve_forever`` blocks; ``start`` runs the listener on a
    daemon thread and returns, for in-process use.

    ``max_campaigns`` caps concurrently *active* (unfinished) campaigns:
    ``start_campaign`` past the cap raises
    :class:`~repro.net.errors.ServiceBusyError`, which the HTTP surface
    maps to ``503`` with a ``Retry-After: retry_after`` header.
    ``write_timeout`` is applied to every accepted client socket, so one
    stalled reader cannot pin a handler thread forever.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        config_factory: Callable[[Dict[str, Any]], StudyConfig] = (
            default_config_factory
        ),
        stream_defaults: Optional[StreamConfig] = None,
        max_campaigns: Optional[int] = None,
        retry_after: float = 30.0,
        write_timeout: Optional[float] = 30.0,
    ) -> None:
        if max_campaigns is not None and max_campaigns <= 0:
            raise ConfigError(
                f"max_campaigns must be positive (or None), "
                f"got {max_campaigns}"
            )
        self.config_factory = config_factory
        self.stream_defaults = stream_defaults or StreamConfig()
        self.max_campaigns = max_campaigns
        self.retry_after = retry_after
        self.write_timeout = write_timeout
        self.campaigns: Dict[str, CampaignService] = {}
        self._latest: Optional[str] = None
        self._counter = 0
        self._lock = threading.Lock()
        self._tails: set = set()
        self._tails_lock = threading.Lock()
        handler = _build_handler(self)
        try:
            self._http = _QuietThreadingHTTPServer((host, port), handler)
        except OSError as error:
            raise ServeError(
                f"cannot bind control server to {host}:{port}: {error}"
            ) from error
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    # -- lifecycle --------------------------------------------------------

    def serve_forever(self) -> None:
        self._serving = True
        self._http.serve_forever(poll_interval=0.1)

    def start(self) -> "ControlServer":
        """Serve on a daemon thread (for tests and embedding)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-control", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self, *, drain_timeout: float = 5.0) -> None:
        """Stop every campaign, drain SSE tail clients, stop the listener.

        Stopping the campaigns pushes them to a terminal state, at which
        point every tail loop emits its ``end`` event and exits; the
        listener is only torn down once the tail registry empties (or
        ``drain_timeout`` elapses), so connected clients see a clean end
        of stream instead of a reset.
        """
        for campaign in list(self.campaigns.values()):
            campaign.stop()
        deadline = time.monotonic() + max(0.0, drain_timeout)
        while self.active_tails and time.monotonic() < deadline:
            time.sleep(0.05)
        if self._serving:
            # BaseServer.shutdown blocks on an event only serve_forever
            # sets, so it must not run for a never-served listener.
            self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    # -- the SSE tail registry --------------------------------------------

    @property
    def active_tails(self) -> int:
        """Currently connected ``/tail`` clients."""
        with self._tails_lock:
            return len(self._tails)

    def register_tail(self, client: Any) -> None:
        with self._tails_lock:
            self._tails.add(client)

    def unregister_tail(self, client: Any) -> None:
        with self._tails_lock:
            self._tails.discard(client)

    # -- campaign registry ------------------------------------------------

    def start_campaign(self, request: Dict[str, Any]) -> Tuple[str, CampaignService]:
        config = self.config_factory(request)
        defaults = self.stream_defaults
        stream = StreamConfig(
            events_per_second=float(request.get(
                "events_per_second", defaults.events_per_second
            )),
            batch_size=int(request.get(
                "batch_size", defaults.batch_size
            )),
            event_capacity=defaults.event_capacity,
            alert_capacity=defaults.alert_capacity,
            queue_capacity=int(request.get(
                "queue_capacity", defaults.queue_capacity
            )),
            publish_policy=str(request.get(
                "publish_policy", defaults.publish_policy
            )),
            stall_timeout=defaults.stall_timeout,
        )
        service = CampaignService(config, stream)
        with self._lock:
            active = sum(
                1 for candidate in self.campaigns.values()
                if not candidate.finished
            )
            if (
                self.max_campaigns is not None
                and active >= self.max_campaigns
            ):
                raise ServiceBusyError(
                    f"campaign limit reached ({active} active, max "
                    f"{self.max_campaigns}); retry later",
                    retry_after=self.retry_after,
                )
            self._counter += 1
            campaign_id = f"c{self._counter}"
            self.campaigns[campaign_id] = service
            self._latest = campaign_id
        service.start()
        return campaign_id, service

    def get_campaign(self, campaign_id: Optional[str]) -> Tuple[str, CampaignService]:
        with self._lock:
            if campaign_id is None:
                campaign_id = self._latest
            if campaign_id is None or campaign_id not in self.campaigns:
                raise KeyError(campaign_id)
            return campaign_id, self.campaigns[campaign_id]


def _build_handler(server: ControlServer):
    """A BaseHTTPRequestHandler subclass bound to one ControlServer."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # needed for chunked SSE

        # -- plumbing -----------------------------------------------------

        def setup(self) -> None:
            super().setup()
            if server.write_timeout is not None:
                # Bounds every read *and* write on this client socket,
                # so a reader that stops draining its SSE stream cannot
                # pin a handler thread past the timeout.
                self.connection.settimeout(server.write_timeout)

        def finish(self) -> None:
            try:
                super().finish()
            except OSError:
                pass  # final flush on a socket the client already closed

        def log_message(self, format: str, *args: Any) -> None:
            pass  # the control surface is quiet; status() is the log

        def _json(
            self, code: int, payload: Dict[str, Any],
            headers: Tuple[Tuple[str, str], ...] = (),
        ) -> None:
            body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _error(self, code: int, message: str) -> None:
            self._json(code, {"error": message})

        def _body(self) -> Dict[str, Any]:
            length = int(self.headers.get("Content-Length") or 0)
            if length == 0:
                return {}
            raw = self.rfile.read(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ValueError(f"request body is not JSON: {error}")
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
            return body

        # -- routes -------------------------------------------------------

        def do_POST(self) -> None:
            path = urlparse(self.path).path
            try:
                body = self._body()
            except ValueError as error:
                self._error(400, str(error))
                return
            if path == "/sim/start":
                try:
                    campaign_id, service = server.start_campaign(body)
                except (ConfigError, ValueError) as error:
                    self._error(400, str(error))
                    return
                except ServiceBusyError as error:
                    self._json(503, {
                        "error": str(error),
                        "retry_after": error.retry_after,
                    }, headers=(
                        ("Retry-After", str(int(error.retry_after))),
                    ))
                    return
                except ReproError as error:
                    self._error(500, str(error))
                    return
                self._json(200, {
                    "campaign": campaign_id,
                    "state": service.state,
                    "seed": service.config.seed,
                })
            elif path == "/sim/stop":
                try:
                    campaign_id, service = server.get_campaign(
                        body.get("campaign")
                    )
                except KeyError:
                    self._error(404, "no such campaign")
                    return
                service.stop()
                self._json(200, {
                    "campaign": campaign_id, "state": service.state,
                })
            else:
                self._error(404, f"unknown route POST {path}")

        def do_GET(self) -> None:
            parsed = urlparse(self.path)
            parts = [part for part in parsed.path.split("/") if part]
            if len(parts) == 3 and parts[0] == "campaigns":
                try:
                    _, service = server.get_campaign(parts[1])
                except KeyError:
                    self._error(404, f"no such campaign {parts[1]!r}")
                    return
                if parts[2] == "status":
                    self._json(200, service.status())
                    return
                if parts[2] == "tail":
                    self._tail(service, parse_qs(parsed.query))
                    return
            self._error(404, f"unknown route GET {parsed.path}")

        # -- the SSE tail -------------------------------------------------

        def _chunk(self, data: bytes) -> None:
            self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
            self.wfile.write(data)
            self.wfile.write(b"\r\n")

        def _sse(self, event: str, payload: Any) -> None:
            data = json.dumps(payload, separators=(",", ":"))
            self._chunk(f"event: {event}\ndata: {data}\n\n".encode("utf-8"))

        def _ring_tail(self, stream: str, ring: Any, cursor: int):
            """Tail one ring, surfacing lag as an SSE event, not a skip."""
            try:
                return ring.tail(cursor)
            except CursorLagError as lag:
                self._sse("lag", {
                    "stream": stream,
                    "dropped": lag.dropped,
                    "oldest": lag.oldest,
                })
                return ring.tail(lag.oldest)

        def _tail(self, service: CampaignService, query: Dict[str, Any]) -> None:
            """Stream events + alerts as chunked server-sent events."""
            def cursor(name: str) -> int:
                values = query.get(name) or ["0"]
                try:
                    return max(0, int(values[0]))
                except ValueError:
                    return 0

            events_cursor = cursor("events")
            alerts_cursor = cursor("alerts")
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            server.register_tail(self)
            try:
                while True:
                    events_cursor, events = self._ring_tail(
                        "events", service.bus.events, events_cursor
                    )
                    for payload in events:
                        self._sse("event", payload)
                    alerts_cursor, alerts = self._ring_tail(
                        "alerts", service.bus.alerts, alerts_cursor
                    )
                    for alert in alerts:
                        self._sse("alert", alert.to_dict())
                    if service.finished:
                        drained = (
                            events_cursor >= service.bus.events.total
                            and alerts_cursor >= service.bus.alerts.total
                        )
                        if drained:
                            self._sse("end", {
                                "state": service.state,
                                "events_total": service.bus.events.total,
                                "alerts_total": service.bus.alerts.total,
                            })
                            break
                    if not events and not alerts:
                        time.sleep(0.05)
                self._chunk(b"")  # terminal zero-length chunk
            except OSError:
                pass  # client went away (or timed out); unsubscribe below
            finally:
                server.unregister_tail(self)

    return Handler
