"""Golden digests of the three measurement-plane stores.

Two sets of SHA-256 digests live in ``plane_goldens.json`` beside this
file:

* ``study`` — :func:`~repro.core.chaos.artifact_digests` (scan merged
  database, attack event log, telescope flow tuples) of
  ``StudyConfig.quick(seed)`` for seeds 7 and 23;
* ``fixtures`` — the stores of three small single-plane fixtures (a scan
  campaign, an attack month, a telescope capture) for seeds 7 and 1234,
  which the column tests check store by store.

A change that moves any plane byte fails here.  The file is written once,
from a known-good tree, with ``PYTHONPATH=src python tests/test_plane_goldens.py``
and must not be regenerated to make a change pass.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro import Study, StudyConfig
from repro.attacks.actors import ActorRegistry, SourceInfo
from repro.attacks.schedule import AttackScheduleConfig, AttackScheduler
from repro.core.chaos import artifact_digests
from repro.core.taxonomy import TrafficClass
from repro.honeypots import build_deployment
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.net.asn import AsnRegistry
from repro.net.geo import GeoRegistry
from repro.scanner.zmap import InternetScanner, ScanConfig
from repro.telescope.telescope import NetworkTelescope, TelescopeConfig

GOLDENS = Path(__file__).with_name("plane_goldens.json")
STUDY_SEEDS = (7, 23)
FIXTURE_SEEDS = (7, 1234)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def flow_lines_digest(writer) -> str:
    """Digest of a flow store's lines, day by day (as ``artifact_digests``)."""
    lines = []
    for day in writer.days():
        lines.extend(writer.lines_for_day(day))
    return text_digest("\n".join(lines))


# -- the single-plane fixtures (cached: tests only read them) ---------------

@functools.lru_cache(maxsize=None)
def scan_campaign(seed):
    world = PopulationBuilder(
        PopulationConfig(seed=seed, scale=16_384, honeypot_scale=512)
    ).build()
    return InternetScanner(world.internet, ScanConfig(seed=seed)).run_campaign()


@functools.lru_cache(maxsize=None)
def attack_month(seed):
    population = PopulationBuilder(
        PopulationConfig(seed=seed, scale=8192, honeypot_scale=256)
    ).build()
    deployment = build_deployment()
    deployment.attach(population.internet)
    scheduler = AttackScheduler(
        population.internet, deployment, population,
        AttackScheduleConfig(seed=seed, attack_scale=128),
    )
    result = scheduler.run()
    deployment.detach(population.internet)
    return result


@functools.lru_cache(maxsize=None)
def telescope_capture(seed):
    registry = ActorRegistry()
    for index in range(40):
        registry.register(SourceInfo(
            address=10_000 + index,
            traffic_class=(TrafficClass.SCANNING_SERVICE if index < 10
                           else TrafficClass.MALICIOUS),
            visits_telescope=True,
        ))
    telescope = NetworkTelescope(
        registry, GeoRegistry(seed), AsnRegistry(seed),
        TelescopeConfig(seed=seed, telnet_source_scale=65_536,
                        source_scale=512, packet_scale=131_072),
    )
    return telescope.capture_month()


def fixture_digests(seed: int) -> Dict[str, str]:
    return {
        "scan": text_digest(scan_campaign(seed).to_jsonl()),
        "attacks": text_digest(attack_month(seed).log.to_jsonl()),
        "telescope": flow_lines_digest(telescope_capture(seed).writer),
    }


@functools.lru_cache(maxsize=None)
def study_digests(seed: int) -> Dict[str, str]:
    study = Study(StudyConfig.quick(seed))
    study.run_scans()
    study.run_attacks()
    study.run_telescope()
    return artifact_digests(study.results)


def golden(section: str, seed: int) -> Dict[str, str]:
    """The pinned digests of one section (``study``/``fixtures``) and seed."""
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    return goldens[section][str(seed)]


@pytest.mark.parametrize("seed", STUDY_SEEDS)
def test_study_plane_digests_match_goldens(seed):
    assert study_digests(seed) == golden("study", seed)


if __name__ == "__main__":
    GOLDENS.write_text(
        json.dumps(
            {
                "study": {
                    str(seed): study_digests(seed) for seed in STUDY_SEEDS
                },
                "fixtures": {
                    str(seed): fixture_digests(seed)
                    for seed in FIXTURE_SEEDS
                },
            },
            indent=2, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDENS}")
