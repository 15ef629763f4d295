"""Strictly-serial scan oracle for one protocol.

The shipping campaign (:meth:`repro.scanner.zmap.InternetScanner.run_campaign`)
admits addresses once, shards them, probes each shard in a key-derived
pseudo-random order and merges the rows canonically.  This oracle walks
the fabric's hosts in order instead — per-target blocklist and host-filter
checks, the :func:`next_probe` grab dialogue, one
:class:`~repro.scanner.records.ScanRecord` per responding endpoint — and,
sorted canonically, must give the campaign's bytes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.net.errors import ConnectionRefused, HostUnreachable
from repro.protocols.base import (
    DEFAULT_PORTS,
    ProtocolId,
    TransportKind,
    transport_of,
)
from repro.scanner.probes import (
    tcp_followup_payload,
    tcp_probe_payload,
    udp_probe_payload,
)
from repro.scanner.records import ScanRecord
from repro.scanner.zmap import (
    _SECONDS_PER_DAY,
    InternetScanner,
    scan_start_day,
)

__all__ = ["serial_scan"]


def serial_scan(
    scanner: InternetScanner, protocol: ProtocolId
) -> List[ScanRecord]:
    """Full two-stage scan of one protocol, one target at a time."""
    timestamp = scan_start_day(protocol) * _SECONDS_PER_DAY
    transport = transport_of(protocol)
    records: List[ScanRecord] = []
    for address, port in _targets(scanner, protocol):
        if scanner.blocklist.blocks(address):
            continue
        if transport == TransportKind.TCP:
            record = _probe_tcp(scanner, protocol, address, port, timestamp)
        else:
            record = _probe_udp(scanner, protocol, address, port, timestamp)
        if record is not None:
            records.append(record)
    return records


def _targets(
    scanner: InternetScanner, protocol: ProtocolId
) -> Iterable[Tuple[int, int]]:
    """Candidate (address, port) pairs for one protocol sweep."""
    ports = DEFAULT_PORTS[protocol]
    for host in scanner.internet.hosts():
        if scanner.host_filter is not None and not scanner.host_filter(
            host.address
        ):
            continue
        for port in ports:
            yield host.address, port


def _probe_tcp(
    scanner: InternetScanner,
    protocol: ProtocolId,
    address: int,
    port: int,
    timestamp: float,
) -> Optional[ScanRecord]:
    """SYN probe, then the ZGrab dialogue driven by ``next_probe``."""
    scanner.probes_sent += 1
    try:
        connection = scanner.internet.tcp_connect(
            scanner._source, address, port
        )
    except (HostUnreachable, ConnectionRefused):
        return None
    responses: List[bytes] = []
    while not connection.closed:
        payload = next_probe(protocol, responses)
        if payload is None:
            break
        responses.append(connection.send(payload))
    connection.close()
    return ScanRecord(
        address=address,
        port=port,
        protocol=protocol,
        transport=TransportKind.TCP,
        banner=connection.banner,
        response=b"".join(responses),
        timestamp=timestamp,
        source="zmap",
    )


def _probe_udp(
    scanner: InternetScanner,
    protocol: ProtocolId,
    address: int,
    port: int,
    timestamp: float,
) -> Optional[ScanRecord]:
    """UDP application probe with bounded retries."""
    payload = udp_probe_payload(protocol)
    response: Optional[bytes] = None
    for _ in range(1 + max(0, scanner.config.udp_retries)):
        scanner.probes_sent += 1
        response = scanner.internet.udp_query(
            scanner._source, address, port, payload
        )
        if response is not None:
            break
    if response is None:
        return None
    return ScanRecord(
        address=address,
        port=port,
        protocol=protocol,
        transport=TransportKind.UDP,
        banner=b"",
        response=response,
        timestamp=timestamp,
        source="zmap",
    )


def next_probe(
    protocol: ProtocolId, responses: Sequence[bytes]
) -> Optional[bytes]:
    """The next payload of a TCP grab dialogue, or None when it is over.

    This is the whole grab state machine the serial scan drives: call
    with the replies received so far, send what comes back, stop on
    ``None``.  The per-protocol shape (banner-only Telnet, one-shot
    MQTT/AMQP/XMPP, two-round OPC UA) lives here and in the probe tables
    — the scanner itself never branches on the protocol.
    """
    if not responses:
        return tcp_probe_payload(protocol)
    if len(responses) == 1:
        return tcp_followup_payload(protocol, responses[0])
    return None
