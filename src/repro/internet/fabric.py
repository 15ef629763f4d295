"""The simulated Internet fabric: connections, datagrams, loss.

:class:`SimulatedInternet` is the data plane every other layer shares — the
scanner probes through it, the attack actors reach honeypots through it, and
unsolicited traffic toward the dark /8 is mirrored to the telescope (wired
up by the study pipeline).

It offers the two primitives the study needs:

* :meth:`tcp_connect` — a three-way-handshake abstraction returning a
  :class:`TcpConnection` bound to the destination's server session, or
  refusing when nothing listens;
* :meth:`udp_query` — a single request/response datagram exchange.

A configurable probe-loss rate models the packet loss an Internet-wide scan
actually suffers (ZMap's coverage is famously <100%); it is an ablation knob
in the benchmarks.

Loss is *order-independent*: each probe's fate is a pure function of
``(loss seed, src, dst, port, kind, attempt#)`` via
:func:`~repro.net.prng.keyed_uniform`, not a draw from a shared sequential
stream.  Interleaving probes differently — scan shards running in any
order, inline or on a process pool — can therefore never change which
probes are lost, which is the foundation of the sharded scanner's
byte-identical guarantee.  Retries still make progress because the per-flow attempt
counter advances the key.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.faults import maybe_fail as _maybe_fail
from repro.internet.host import SimulatedHost
from repro.net.errors import ConnectionRefused, HostUnreachable
from repro.net.prng import RandomStream, keyed_uniform

from repro.protocols.base import ProtocolServer, ServerReply, Session

__all__ = ["TcpConnection", "ProbeLossModel", "SimulatedInternet"]


class ProbeLossModel:
    """Keyed (order-independent) probe-loss decisions.

    ``lost(src, dst, port, kind)`` answers whether this probe vanishes.
    Each distinct flow ``(src, dst, port, kind)`` carries an attempt
    counter so retries of the same probe get fresh, independent verdicts;
    the verdict for attempt *n* of a flow is identical no matter how probes
    from other flows interleave with it.
    """

    def __init__(self, rate: float, seed: int, name: str = "fabric.loss") -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.rate = rate
        self.seed = seed
        self.name = name
        self._attempts: Dict[Tuple[int, int, int, str], int] = {}
        self._lock = threading.Lock()

    def lost(self, src: int, dst: int, port: int, kind: str) -> bool:
        """Draw this probe's fate and advance the flow's attempt counter."""
        if self.rate <= 0:
            return False
        flow = (src, dst, port, kind)
        with self._lock:
            attempt = self._attempts.get(flow, 0)
            self._attempts[flow] = attempt + 1
        return keyed_uniform(
            self.seed, self.name, src, dst, port, kind, attempt
        ) < self.rate

    # The model travels inside pickled phase artifacts (the engine's disk
    # cache stores whole worlds); locks do not pickle, so rebuild one.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


@dataclass
class TcpConnection:
    """An established simulated TCP connection to one service."""

    peer_address: int
    peer_port: int
    server: ProtocolServer
    session: Session
    closed: bool = False
    #: Raw banner volunteered by the server at accept time.
    banner: bytes = b""

    def send(self, data: bytes) -> bytes:
        """Send application bytes; returns the server's reply bytes."""
        if self.closed:
            raise ConnectionRefused("connection already closed")
        reply = self.server.handle(data, self.session)
        if reply.close:
            self.closed = True
        return reply.data

    def close(self) -> None:
        """Tear the connection down."""
        self.closed = True


class SimulatedInternet:
    """Address → host routing with loss and observation hooks."""

    def __init__(
        self,
        hosts: Optional[Iterable[SimulatedHost]] = None,
        *,
        loss_rate: float = 0.0,
        loss_stream: Optional[RandomStream] = None,
        loss_model: Optional[ProbeLossModel] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self._hosts: Dict[int, SimulatedHost] = {}
        self.loss_rate = loss_rate
        # ``loss_stream`` used to be consumed sequentially; its (seed, name)
        # identity now keys the order-independent loss model instead, so a
        # caller pinning a stream still gets a fully deterministic fabric.
        if loss_model is None:
            anchor = loss_stream or RandomStream(0, "fabric.loss")
            loss_model = ProbeLossModel(loss_rate, anchor.seed, anchor.name)
        self.loss_model = loss_model
        #: Observers called for every connection attempt: (src, dst, port,
        #: kind) where kind is "tcp" or "udp".  The telescope and honeypot
        #: bookkeeping attach here.
        self.observers: List[Callable[[int, int, int, str], None]] = []
        for host in hosts or []:
            self.add_host(host)

    # -- topology ----------------------------------------------------------

    def add_host(self, host: SimulatedHost) -> None:
        """Attach a host; the address must be unique."""
        if host.address in self._hosts:
            raise ValueError(f"duplicate address {host.address_text}")
        self._hosts[host.address] = host

    def remove_host(self, address: int) -> None:
        """Detach a host (no-op when absent)."""
        self._hosts.pop(address, None)

    def host_at(self, address: int) -> Optional[SimulatedHost]:
        """The host bound to ``address``, if any."""
        return self._hosts.get(address)

    def hosts(self) -> Iterable[SimulatedHost]:
        """All attached hosts."""
        return self._hosts.values()

    def __len__(self) -> int:
        return len(self._hosts)

    def __contains__(self, address: int) -> bool:
        return address in self._hosts

    # -- data plane ----------------------------------------------------------

    def _lost(self, src: int, dst: int, port: int, kind: str) -> bool:
        return self.loss_rate > 0 and self.loss_model.lost(src, dst, port, kind)

    def _notify(self, src: int, dst: int, port: int, kind: str) -> None:
        for observer in self.observers:
            observer(src, dst, port, kind)

    def tcp_connect(self, src: int, dst: int, port: int) -> TcpConnection:
        """Three-way handshake to ``dst:port``.

        Raises :class:`HostUnreachable` when no host owns the address (the
        SYN vanishes into dark space — which the telescope may be watching),
        and :class:`ConnectionRefused` when the host has no listener (RST).

        The ``fabric.connect`` injection site fires *before* any side
        effect (observer notification, loss draw): an injected fault
        models the connect infrastructure failing, distinct from the
        modelled in-band probe loss, and leaves no trace behind.
        """
        _maybe_fail("fabric.connect", src, dst, port, "tcp")
        self._notify(src, dst, port, "tcp")
        if self._lost(src, dst, port, "tcp"):
            raise HostUnreachable(f"probe to {dst}:{port} lost")
        host = self._hosts.get(dst)
        if host is None:
            raise HostUnreachable(f"no route to {dst}")
        server = host.service_on(port)
        if server is None:
            raise ConnectionRefused(f"{host.address_text}:{port} refused")
        session = server.open_session(peer=src)
        return TcpConnection(
            peer_address=dst,
            peer_port=port,
            server=server,
            session=session,
            banner=server.accept(session),
        )

    def try_tcp_connect(
        self, src: int, dst: int, port: int
    ) -> Optional[TcpConnection]:
        """Exception-free handshake: None when nothing answers.

        Semantically identical to :meth:`tcp_connect` (same observer
        notification, same loss draw) but returns ``None`` instead of
        raising — the scanner's hot sweep loop uses it, since to a prober
        "lost", "dark" and "refused" are all just silence.  An injected
        ``fabric.connect`` fault still *raises* (it is an infrastructure
        failure the supervised executor must see, not modelled silence).
        """
        _maybe_fail("fabric.connect", src, dst, port, "tcp")
        self._notify(src, dst, port, "tcp")
        if self._lost(src, dst, port, "tcp"):
            return None
        host = self._hosts.get(dst)
        if host is None:
            return None
        server = host.service_on(port)
        if server is None:
            return None
        session = server.open_session(peer=src)
        return TcpConnection(
            peer_address=dst,
            peer_port=port,
            server=server,
            session=session,
            banner=server.accept(session),
        )

    def measure_rtt(
        self, src: int, dst: int, port: int, stream: RandomStream
    ) -> Optional[float]:
        """One application-layer round-trip-time measurement in ms.

        Returns None when nothing answers at ``dst:port``.  Timing is an
        observable like a banner: it comes from the host's latency model,
        sampled deterministically, never from its ground-truth flags.
        """
        self._notify(src, dst, port, "tcp")
        host = self._hosts.get(dst)
        if host is None or host.service_on(port) is None:
            return None
        latency = host.latency_model()
        if latency is None:
            return 1.0  # hosts without a model answer at a nominal 1ms
        return latency.sample(stream)

    def udp_query(self, src: int, dst: int, port: int, payload: bytes) -> Optional[bytes]:
        """One UDP request/response exchange.

        Returns the response bytes, or None when the datagram is lost, the
        host does not exist, the port is closed, or the service elects not
        to answer — all indistinguishable to the prober, exactly as in real
        UDP scanning.  An injected ``fabric.connect`` fault raises rather
        than returning ``None`` — see :meth:`try_tcp_connect`.
        """
        _maybe_fail("fabric.connect", src, dst, port, "udp")
        self._notify(src, dst, port, "udp")
        if self._lost(src, dst, port, "udp"):
            return None
        host = self._hosts.get(dst)
        if host is None:
            return None
        server = host.service_on(port)
        if server is None:
            return None
        reply = server.handle(payload, server.open_session(peer=src))
        return reply.data if reply.data else None
