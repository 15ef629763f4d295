"""Scalar oracle for one (honeypot, day) attack task.

The production task (:func:`repro.attacks.schedule._execute_attack_task`)
draws the day's timestamps as one vectorized block, drives identical
payload runs through ``handle_repeat`` fast paths and classifies each
distinct transcript once.  This oracle does the same work the plain way —
per-event timestamp draws, per-payload ``handle`` calls and per-event
:func:`~repro.honeypots.classify.classify_session` — and must produce an
identical :class:`~repro.attacks.schedule._TaskOutcome`.
"""

from __future__ import annotations

import copy
import time
from typing import Dict, Tuple

from repro.attacks.malware import TaskCorpusView
from repro.attacks.payloads import build_payloads
from repro.attacks.schedule import (
    _AttackWorkerState,
    _TaskOutcome,
    _int_state,
    _reset_services,
    _task_lost,
)
from repro.core.tasks import TaskTiming
from repro.honeypots.base import SessionTranscript
from repro.honeypots.classify import classify_session
from repro.protocols.base import TransportKind, transport_of

__all__ = ["scalar_attack_task"]


def scalar_attack_task(state: _AttackWorkerState, payload) -> _TaskOutcome:
    """Execute one ``(honeypot, day, sessions)`` task the scalar way."""
    honeypot_name, day, sessions = payload
    honeypot_address, pristine, want_pcap = state.honeypots[honeypot_name]
    start = time.perf_counter()
    stream = state.stream.derive(honeypot_name, day)
    ts_stream = state.stream.derive(honeypot_name, day, "ts")
    day_base = day * 86_400.0
    ts_uniform = ts_stream.uniform
    timestamps = [
        day_base + ts_uniform(0, 86_399) for _ in range(len(sessions))
    ]
    services = copy.deepcopy(pristine)
    base_state = _int_state(services)
    corpus_view = TaskCorpusView(state.corpus)
    outcome = _TaskOutcome(honeypot=honeypot_name)
    events = outcome.events
    loss_model = state.loss_model
    lossy = state.loss_rate > 0
    attempts: Dict[Tuple[int, int, str], int] = {}

    current_protocol = None
    port = None
    server = None
    is_udp = False
    for index, planned in enumerate(sessions):
        protocol = planned.protocol
        if protocol is not current_protocol:
            # Each (protocol, day) batch starts on live services.
            _reset_services(services)
            current_protocol = protocol
            ports = [
                p for p, candidate in services.items()
                if candidate.protocol == protocol
            ]
            port = ports[0] if ports else None
            server = services.get(port) if port is not None else None
            is_udp = transport_of(protocol) == TransportKind.UDP
        source = planned.source
        payloads, malware_hash = build_payloads(
            planned.intent, protocol, stream, corpus_view
        )
        outcome.attempted += 1
        if server is None:
            outcome.dropped += 1
            continue
        src = source.address
        transcript = SessionTranscript(
            protocol=protocol, port=port, source=src
        )
        exchanges = transcript.exchanges
        if is_udp:
            handle = server.handle
            open_session = server.open_session
            if lossy:
                for item in payloads:
                    if _task_lost(
                        loss_model, src, honeypot_address, port, "udp",
                        day, attempts,
                    ):
                        exchanges.append((item, b""))
                        continue
                    reply = handle(item, open_session(peer=src))
                    exchanges.append(
                        (item, reply.data if reply.data else b"")
                    )
            else:
                for item in payloads:
                    reply = handle(item, open_session(peer=src))
                    exchanges.append(
                        (item, reply.data if reply.data else b"")
                    )
        else:
            if lossy and _task_lost(
                loss_model, src, honeypot_address, port, "tcp",
                day, attempts,
            ):
                outcome.dropped += 1
                continue
            tcp_session = server.open_session(peer=src)
            transcript.banner = server.accept(tcp_session)
            handle = server.handle
            for item in payloads:
                reply = handle(item, tcp_session)
                exchanges.append((item, reply.data))
                if reply.close:
                    break
        timestamp = timestamps[index]
        attack_type, summary = classify_session(transcript)
        events.append((
            honeypot_name, protocol, src, day, timestamp, attack_type,
            source.actor, summary, malware_hash, transcript.request_bytes,
        ))
        if want_pcap:
            outcome.pcap.append((timestamp, transcript))
        if malware_hash:
            outcome.families.append(
                (src, corpus_view.family_of(malware_hash))
            )

    for task_port, task_server in services.items():
        base = base_state.get(task_port, {})
        deltas = {
            attr: value - base.get(attr, 0)
            for attr, value in vars(task_server).items()
            if type(value) is int and value != base.get(attr, 0)
        }
        if deltas:
            outcome.counters[task_port] = deltas
    outcome.minted = corpus_view.minted
    outcome.timing = TaskTiming(
        plane="attacks",
        unit=honeypot_name,
        day=day,
        seconds=time.perf_counter() - start,
        events=len(events),
    )
    return outcome
