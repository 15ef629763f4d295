"""Synthetic Internet population fitted to the paper's published counts.

``PopulationBuilder`` constructs a :class:`SimulatedInternet` whose *scan
observables* reproduce the paper's Tables 4 and 5 at a configurable 1:N
scale:

* per-protocol exposure (Table 4, ZMap column) — how many hosts answer a
  probe on each protocol;
* per-protocol misconfiguration mix (Table 5) — how many of those exhibit
  each vulnerability indicator;
* wild honeypot deployment (Table 6 mix) — honeypots masquerading as
  misconfigured Telnet devices, to be filtered by fingerprinting;
* country distribution (Table 10) — via the block-granular geo registry.

Ground truth is recorded on each host for fidelity scoring, but the
measurement pipeline never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.scaling import apportion, scale_count
from repro.core.taxonomy import MISCONFIG_PROTOCOL, Misconfig
from repro.internet.devices import DEVICE_PROFILES, build_server, profiles_for
from repro.internet.fabric import SimulatedInternet
from repro.internet.host import SimulatedHost
from repro.internet.wild_honeypots import (
    WILD_HONEYPOT_CATALOG,
    build_wild_honeypot_server,
)
from repro.net.errors import ConfigError
from repro.net.compat import DATACLASS_KW_ONLY
from repro.net.ipv4 import AddressAllocator, CidrBlock
from repro.net.latency import honeypot_latency
from repro.net.prng import RandomStream, WeightedPicker
from repro.protocols.base import DEFAULT_PORTS, ProtocolId

__all__ = [
    "EXTENSION_EXPOSED",
    "EXTENSION_MISCONFIG_COUNTS",
    "PAPER_EXPOSED_ZMAP",
    "PAPER_MISCONFIG_COUNTS",
    "PopulationConfig",
    "Population",
    "PopulationBuilder",
]

#: Table 4, ZMap column: unique exposed hosts per protocol.
PAPER_EXPOSED_ZMAP: Dict[ProtocolId, int] = {
    ProtocolId.AMQP: 34_542,
    ProtocolId.XMPP: 423_867,
    ProtocolId.COAP: 618_650,
    ProtocolId.UPNP: 1_381_940,
    ProtocolId.MQTT: 4_842_465,
    ProtocolId.TELNET: 7_096_465,
}

#: Table 5: misconfigured devices per vulnerability class.
PAPER_MISCONFIG_COUNTS: Dict[Misconfig, int] = {
    Misconfig.COAP_NO_AUTH_ADMIN: 427,
    Misconfig.AMQP_NO_AUTH: 2_731,
    Misconfig.TELNET_NO_AUTH: 4_013,
    Misconfig.XMPP_NO_ENCRYPTION: 5_421,
    Misconfig.COAP_NO_AUTH: 9_067,
    Misconfig.TELNET_NO_AUTH_ROOT: 22_887,
    Misconfig.MQTT_NO_AUTH: 102_891,
    Misconfig.XMPP_ANONYMOUS: 143_986,
    Misconfig.COAP_REFLECTOR: 543_341,
    Misconfig.UPNP_REFLECTOR: 998_129,
}

#: Sanity anchor: Table 5's published total.
PAPER_TOTAL_MISCONFIGURED = sum(PAPER_MISCONFIG_COUNTS.values())
assert PAPER_TOTAL_MISCONFIGURED == 1_832_893

#: §6 future-work extension: exposure/misconfig estimates for TR-069, DDS
#: and OPC UA.  These are NOT published in the paper — they are fitted from
#: contemporaneous Shodan reports (TR-069 was among the most exposed ports
#: in 2021; DDS exposure was quantified later by Maggi et al. (2022) at a
#: few hundred; OPC UA endpoints number in the low thousands).
EXTENSION_EXPOSED: Dict[ProtocolId, int] = {
    ProtocolId.TR069: 2_350_000,
    ProtocolId.DDS: 640,
    ProtocolId.OPCUA: 2_900,
}

EXTENSION_MISCONFIG_COUNTS: Dict[Misconfig, int] = {
    Misconfig.TR069_NO_AUTH: 480_000,
    Misconfig.DDS_OPEN_DISCOVERY: 510,
    Misconfig.OPCUA_NO_SECURITY: 1_250,
}


@dataclass(**DATACLASS_KW_ONLY)
class PopulationConfig:
    """Knobs controlling world generation.

    ``scale`` divides the paper's exposure counts; ``honeypot_scale``
    divides the wild-honeypot counts separately (honeypots are rare, so they
    need a gentler scale to keep every product represented).
    """

    #: ``None`` means "inherit the master :class:`~repro.core.config.
    #: StudyConfig` seed" (resolving to :data:`~repro.net.prng.DEFAULT_SEED`
    #: when used standalone).
    seed: Optional[int] = None
    scale: int = 1024
    honeypot_scale: int = 64
    min_category_count: int = 1
    #: Fraction of Telnet listeners on the alternate port 2323 (the paper's
    #: dual-port scan is why its Telnet counts beat Project Sonar's).
    telnet_alt_port_fraction: float = 0.12
    #: Probe/response loss rate of the fabric.
    loss_rate: float = 0.0
    #: Also populate the §6 extension protocols (TR-069, DDS, OPC UA).
    include_extended: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`~repro.net.errors.ConfigError` on invalid knobs."""
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.scale < 1 or self.honeypot_scale < 1:
            raise ConfigError("scales must be >= 1")
        if not 0.0 <= self.telnet_alt_port_fraction <= 1.0:
            raise ConfigError("telnet_alt_port_fraction must be in [0, 1]")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigError("loss_rate must be in [0, 1)")


@dataclass
class Population:
    """The generated world plus its ground-truth index."""

    config: PopulationConfig
    internet: SimulatedInternet
    hosts: List[SimulatedHost]
    by_protocol: Dict[ProtocolId, List[SimulatedHost]]
    misconfigured: Dict[Misconfig, List[SimulatedHost]]
    wild_honeypots: List[SimulatedHost]

    @property
    def total_hosts(self) -> int:
        """Total endpoints attached to the fabric."""
        return len(self.hosts)

    def misconfigured_addresses(self) -> set:
        """Ground-truth set of misconfigured device addresses."""
        addresses = set()
        for hosts in self.misconfigured.values():
            addresses.update(host.address for host in hosts)
        return addresses


class PopulationBuilder:
    """Builds the scaled world (deterministic in the config seed)."""

    def __init__(self, config: Optional[PopulationConfig] = None) -> None:
        self.config = config or PopulationConfig()
        self._stream = RandomStream(self.config.seed, "population")
        self._allocator = AddressAllocator(
            [CidrBlock.parse("1.0.0.0/2"), CidrBlock.parse("64.0.0.0/3"),
             CidrBlock.parse("96.0.0.0/4"), CidrBlock.parse("128.0.0.0/2"),
             CidrBlock.parse("192.0.0.0/3")],
            self._stream.child("allocator"),
        )
        #: (protocol, label) → (vulnerable AMQP profiles, picker over the
        #: other candidates), built on the first host that needs it.
        self._pickers: Dict[tuple, Tuple[list, WeightedPicker]] = {}

    # -- public API ---------------------------------------------------------

    def build(self) -> Population:
        """Generate the full world."""
        config = self.config
        internet = SimulatedInternet(
            loss_rate=config.loss_rate,
            loss_stream=self._stream.child("loss"),
        )
        hosts: List[SimulatedHost] = []
        by_protocol: Dict[ProtocolId, List[SimulatedHost]] = {
            protocol: [] for protocol in PAPER_EXPOSED_ZMAP
        }
        misconfigured: Dict[Misconfig, List[SimulatedHost]] = {
            label: [] for label in PAPER_MISCONFIG_COUNTS
        }

        exposed_table = dict(PAPER_EXPOSED_ZMAP)
        misconfig_table = dict(PAPER_MISCONFIG_COUNTS)
        if config.include_extended:
            exposed_table.update(EXTENSION_EXPOSED)
            misconfig_table.update(EXTENSION_MISCONFIG_COUNTS)
            for protocol in EXTENSION_EXPOSED:
                by_protocol.setdefault(protocol, [])
            for label in EXTENSION_MISCONFIG_COUNTS:
                misconfigured.setdefault(label, [])
        exposed_counts = apportion(
            exposed_table, config.scale, min_count=config.min_category_count
        )
        misconfig_counts = apportion(
            misconfig_table, config.scale,
            min_count=config.min_category_count,
        )

        for protocol, exposed in exposed_counts.items():
            labels = self._protocol_label_sequence(
                protocol, exposed, misconfig_counts
            )
            for label in labels:
                host = self._build_device_host(protocol, label)
                internet.add_host(host)
                hosts.append(host)
                by_protocol[protocol].append(host)
                if label != Misconfig.NONE:
                    misconfigured[label].append(host)

        wild = self._deploy_wild_honeypots(internet)
        hosts.extend(wild)

        return Population(
            config=config,
            internet=internet,
            hosts=hosts,
            by_protocol=by_protocol,
            misconfigured=misconfigured,
            wild_honeypots=wild,
        )

    # -- internals -----------------------------------------------------------

    def _protocol_label_sequence(
        self,
        protocol: ProtocolId,
        exposed: int,
        misconfig_counts: Dict[Misconfig, int],
    ) -> List[Misconfig]:
        """Misconfig label per exposed host of one protocol, shuffled."""
        labels: List[Misconfig] = []
        for label, count in misconfig_counts.items():
            if MISCONFIG_PROTOCOL[label] == protocol:
                labels.extend([label] * count)
        if len(labels) > exposed:
            # Scale rounding can make misconfig sum exceed exposure for tiny
            # protocols; exposure wins, extra labels are dropped determin-
            # istically from the largest class.
            labels = labels[:exposed]
        labels.extend([Misconfig.NONE] * (exposed - len(labels)))
        self._stream.child(f"labels.{protocol}").shuffle(labels)
        return labels

    def _build_device_host(
        self, protocol: ProtocolId, label: Misconfig
    ) -> SimulatedHost:
        stream = self._stream.child(f"host.{self._allocator.allocated_count}")
        profile = self._pick_profile(protocol, label, stream)
        server = build_server(profile, label, stream)
        address = self._allocator.allocate()
        port = self._pick_port(protocol, stream)
        host = SimulatedHost(
            address=address,
            services={port: server},
            device_name=profile.name,
            device_type=profile.device_type,
            misconfig=label,
            # The ``.latency`` child stream, drawn when a probe first
            # times the host.
            latency_stream=(stream.seed, f"{stream.name}.latency"),
        )
        return host

    def _pick_profile(self, protocol: ProtocolId, label: Misconfig, stream):
        vulnerable, picker = self._profile_picker(protocol, label)
        if vulnerable and stream.bernoulli(0.5):
            return stream.choice(vulnerable)
        # Replays ``stream.choices(candidates, weights, k=1)[0]``.
        return picker.pick_from(stream)

    def _profile_picker(
        self, protocol: ProtocolId, label: Misconfig
    ) -> Tuple[list, WeightedPicker]:
        key = (protocol, label)
        if key in self._pickers:
            return self._pickers[key]
        candidates = profiles_for(protocol)
        if not candidates:
            raise ConfigError(f"no device profiles for protocol {protocol}")
        vulnerable: list = []
        if protocol == ProtocolId.AMQP:
            # Vulnerable-version profiles only make sense for misconfigured
            # brokers (the version string *is* the indicator).
            if label == Misconfig.AMQP_NO_AUTH:
                vulnerable = [c for c in candidates if "Vulnerable" in c.name]
            candidates = [c for c in candidates if "Vulnerable" not in c.name]
        picker = WeightedPicker(
            None, candidates, [profile.weight for profile in candidates]
        )
        self._pickers[key] = (vulnerable, picker)
        return self._pickers[key]

    def _pick_port(self, protocol: ProtocolId, stream) -> int:
        ports = DEFAULT_PORTS[protocol]
        if protocol == ProtocolId.TELNET:
            if stream.bernoulli(self.config.telnet_alt_port_fraction):
                return 2323
            return 23
        if protocol == ProtocolId.XMPP:
            # Client port dominates; a slice listens on the s2s port.
            return 5269 if stream.bernoulli(0.15) else 5222
        return ports[0]

    def _deploy_wild_honeypots(self, internet: SimulatedInternet) -> List[SimulatedHost]:
        counts = apportion(
            {kind.name: kind.paper_count for kind in WILD_HONEYPOT_CATALOG},
            self.config.honeypot_scale,
            min_count=self.config.min_category_count,
        )
        catalog = {kind.name: kind for kind in WILD_HONEYPOT_CATALOG}
        deployed: List[SimulatedHost] = []
        for name, count in counts.items():
            kind = catalog[name]
            for _ in range(count):
                address = self._allocator.allocate()
                host = SimulatedHost(
                    address=address,
                    services={kind.port: build_wild_honeypot_server(kind)},
                    device_name=name,
                    device_type="Honeypot",
                    is_honeypot=True,
                    honeypot_kind=name,
                    latency=honeypot_latency(
                        self._stream.child(f"hp-latency.{address}")
                    ),
                )
                internet.add_host(host)
                deployed.append(host)
        return deployed
