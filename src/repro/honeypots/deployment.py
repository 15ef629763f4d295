"""The six-honeypot lab of Figure 1 / Table 7.

Factories for the exact deployment the paper ran for one month:

=========  ============================  =======================================
Honeypot   Simulated device profile      Emulated protocols (Table 7)
=========  ============================  =======================================
HosTaGe    Arduino board, IoT protocols  Telnet MQTT AMQP CoAP SSH HTTP SMB
U-Pot      Belkin Wemo smart switch      UPnP
Conpot     Siemens S7 PLC                SSH Telnet S7 HTTP (+Modbus, §5.1.4)
ThingPot   Philips Hue Bridge            XMPP
Cowrie     SSH server with IoT banner    SSH Telnet
Dionaea    Arduino IoT device, frontend  HTTP MQTT FTP SMB
=========  ============================  =======================================

Each honeypot owns a public address in the university network (port
forwarding per group, Figure 1), with service banners chosen to look like
the emulated device — including the frozen banners that ironically make lab
honeypots fingerprintable (Cowrie's Telnet banner here is the same one the
Table 6 filter matches in the wild).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.honeypots.base import HoneypotDeployment, LabHoneypot
from repro.honeypots.events import EventStore
from repro.protocols.amqp import AmqpConfig, AmqpServer
from repro.protocols.base import ProtocolServer
from repro.protocols.coap import CoapConfig, CoapServer
from repro.protocols.ftp import FtpConfig, FtpServer
from repro.protocols.http import HttpConfig, HttpServer
from repro.protocols.modbus import ModbusConfig, ModbusServer
from repro.protocols.mqtt import MqttBroker, MqttConfig
from repro.protocols.s7 import S7Config, S7Server
from repro.protocols.smb import SmbConfig, SmbServer
from repro.protocols.ssh import SshConfig, SshServer
from repro.protocols.telnet import TelnetConfig, TelnetServer
from repro.protocols.upnp import SsdpDeviceInfo, UpnpConfig, UpnpServer
from repro.protocols.xmpp import XmppConfig, XmppServer

__all__ = ["build_deployment", "HONEYPOT_NAMES"]

HONEYPOT_NAMES = ["HosTaGe", "U-Pot", "Conpot", "ThingPot", "Cowrie", "Dionaea"]

#: Weak credentials honeypots accept so droppers get past authentication
#: often enough to reveal their payloads (low-interaction honeypots accept
#: most logins by design).
_HONEYPOT_CREDENTIALS = {"root": "xc3511", "admin": "polycom"}


def _hostage(log: EventStore) -> LabHoneypot:
    services: Dict[int, ProtocolServer] = {
        23: TelnetServer(TelnetConfig(
            auth_required=True,
            credentials=dict(_HONEYPOT_CREDENTIALS),
            pre_banner="Arduino Yun (Linino) 17.11",
            max_attempts=20,
        )),
        1883: MqttBroker(MqttConfig(
            auth_required=False,
            topics={"arduino/sensors/smoke": b"0",
                    "arduino/sensors/temperature": b"21.0"},
        )),
        5672: AmqpServer(AmqpConfig(
            product="RabbitMQ", version="3.6.10",
            auth_required=False, allow_anonymous=True,
            queues={"telemetry": [b"boot"]},
        )),
        5683: CoapServer(CoapConfig(
            access="full",
            resources={"/sensors/smoke": b"0", "/sensors/temp": b"21.0"},
            device_title="smoke-sensor",
        )),
        22: SshServer(SshConfig(
            software="dropbear_2017.75",
            credentials=dict(_HONEYPOT_CREDENTIALS),
            max_attempts=20,
        )),
        80: HttpServer(HttpConfig(
            server_header="Arduino WebServer",
            title="Arduino IoT Board",
            credentials=dict(_HONEYPOT_CREDENTIALS),
        )),
        445: SmbServer(SmbConfig(supports_smb1=True, ms17_010_patched=False,
                                 hostname="ARDUINO-GW")),
    }
    return LabHoneypot(
        "HosTaGe", "Arduino Board with IoT Protocols", "130.225.52.11",
        services, log,
    )


def _upot(log: EventStore) -> LabHoneypot:
    info = SsdpDeviceInfo(
        uuid="e3f2a1aa-4a2c-4546-ac5d-7663dd01dca1",
        server="Unspecified, UPnP/1.0, Unspecified",
        friendly_name="WeMo Switch",
        manufacturer="Belkin International Inc.",
        model_name="Socket",
        model_number="1.0",
    )
    services: Dict[int, ProtocolServer] = {
        1900: UpnpServer(UpnpConfig(info=info, respond_to_search=True,
                                    expose_description=True)),
    }
    return LabHoneypot(
        "U-Pot", "Belkin Wemo smart switch", "130.225.52.12", services, log,
    )


def _conpot(log: EventStore) -> LabHoneypot:
    services: Dict[int, ProtocolServer] = {
        22: SshServer(SshConfig(
            software="OpenSSH_6.7p1 Debian-5+deb8u3",
            credentials=dict(_HONEYPOT_CREDENTIALS),
            max_attempts=20,
        )),
        23: TelnetServer(TelnetConfig(
            auth_required=True,
            credentials=dict(_HONEYPOT_CREDENTIALS),
            raw_banner=b"Connected to [00:13:EA:00:00:00]\r\n",
            max_attempts=20,
        )),
        102: S7Server(S7Config()),
        502: ModbusServer(ModbusConfig()),
        80: HttpServer(HttpConfig(
            server_header="Siemens, SIMATIC, S7-200",
            title="S7-200 Station",
        )),
    }
    return LabHoneypot(
        "Conpot", "Siemens S7 PLC", "130.225.52.13", services, log,
    )


def _thingpot(log: EventStore) -> LabHoneypot:
    services: Dict[int, ProtocolServer] = {
        5222: XmppServer(XmppConfig(
            domain="philips-hue.local",
            mechanisms=["ANONYMOUS", "PLAIN"],
            starttls=False, tls_required=False,
            credentials={"hue": "bridge"},
            device_state={"light-1": "off", "light-2": "off", "light-3": "on"},
        )),
    }
    return LabHoneypot(
        "ThingPot", "Philips Hue Bridge", "130.225.52.14", services, log,
    )


def _cowrie(log: EventStore) -> LabHoneypot:
    services: Dict[int, ProtocolServer] = {
        22: SshServer(SshConfig(
            software="OpenSSH_6.0p1 Debian-4+deb7u2",
            credentials=dict(_HONEYPOT_CREDENTIALS),
            max_attempts=20,
        )),
        23: TelnetServer(TelnetConfig(
            auth_required=True,
            credentials=dict(_HONEYPOT_CREDENTIALS),
            raw_banner=b"\xff\xfd\x1flogin: ",
            max_attempts=20,
        )),
    }
    return LabHoneypot(
        "Cowrie", "SSH Server with IoT banner", "130.225.52.15", services, log,
    )


def _dionaea(log: EventStore) -> LabHoneypot:
    services: Dict[int, ProtocolServer] = {
        80: HttpServer(HttpConfig(
            server_header="nginx/1.10.3",
            title="Arduino Frontend",
            credentials=dict(_HONEYPOT_CREDENTIALS),
        )),
        1883: MqttBroker(MqttConfig(
            auth_required=False,
            topics={"frontend/devices": b"[]"},
        )),
        21: FtpServer(FtpConfig(allow_anonymous=True)),
        445: SmbServer(SmbConfig(supports_smb1=True, ms17_010_patched=False,
                                 hostname="DIONAEA-PC")),
    }
    return LabHoneypot(
        "Dionaea", "Arduino IoT device with frontend", "130.225.52.16",
        services, log,
    )


def build_deployment(log: Optional[EventStore] = None) -> HoneypotDeployment:
    """Construct the full six-honeypot lab sharing one event log."""
    if log is None:
        log = EventStore()
    honeypots: List[LabHoneypot] = [
        _hostage(log), _upot(log), _conpot(log),
        _thingpot(log), _cowrie(log), _dionaea(log),
    ]
    return HoneypotDeployment(honeypots, log)
