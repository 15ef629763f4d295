"""Per-protocol provider sweep oracle.

The shipping :meth:`repro.scanner.datasets.DatasetProvider.snapshot`
admits the world once per provider, draws each protocol's coverage as one
batch of uniform floats and sweeps every protocol in one campaign.  This
oracle is the loop it replaced: per protocol, a ``bernoulli`` draw per
host into an inclusion set, a fresh scanner whose host filter walks every
host through that set and the blocklist, one campaign, the port
restriction as a filter, and the protocol's rows appended in coverage
order.
"""

from __future__ import annotations

from repro.internet.fabric import SimulatedInternet
from repro.net.prng import RandomStream
from repro.scanner.datasets import DatasetProvider
from repro.scanner.records import ScanDatabase
from repro.scanner.zmap import InternetScanner, ScanConfig

__all__ = ["provider_snapshot"]


def provider_snapshot(
    provider: DatasetProvider, internet: SimulatedInternet
) -> ScanDatabase:
    """The provider's dataset, one scanner and campaign per protocol."""
    database = ScanDatabase()
    for protocol, rate in provider.coverage.items():
        stream = RandomStream(
            provider.seed, f"dataset.{provider.name}.{protocol}"
        )
        included = {
            host.address
            for host in internet.hosts()
            if stream.bernoulli(min(1.0, rate))
        }
        scanner = InternetScanner(
            internet,
            ScanConfig(
                scanner_address=provider.scanner_address,
                protocols=(protocol,),
                seed=provider.seed,
            ),
            host_filter=included.__contains__,
        )
        snapshot = scanner.run_campaign()
        restrictions = (provider.port_restrictions or {}).get(protocol)
        if restrictions is not None:
            snapshot = snapshot.where(port=restrictions)
        snapshot.set_source(provider.name)
        database.append_batch(snapshot.iter_rows())
    return database
