"""Sharded attack-plane determinism: serial vs K-worker byte identity.

The attack month shards into per-(honeypot, day) tasks and the telescope
month into per-(protocol, day) tasks, each drawing from a
``RandomStream.derive(unit, day)`` child stream; the merged output must be
byte-identical for every worker count K.  These tests pin that down across
two seeds, pin each attack task to the scalar oracle in
``tests/oracles/scalar_attack_task.py``, and cover the columnar
:class:`EventStore` query surface and the ``workers`` config/CLI plumbing —
the attack-plane mirror of :mod:`tests.test_sharding`.
"""

from __future__ import annotations

import pytest

from repro.attacks.actors import ActorRegistry, SourceInfo
from repro.attacks.schedule import (
    AttackScheduleConfig,
    AttackScheduler,
    _execute_attack_task,
)
from repro.cli import main
from repro.core.taxonomy import AttackType, TrafficClass
from repro.honeypots import build_deployment
from repro.honeypots.events import AttackEvent, EventStore
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.net.asn import AsnRegistry
from repro.net.errors import ConfigError
from repro.net.geo import GeoRegistry
from repro.protocols.base import ProtocolId
from repro.telescope.flowtuple import encode_flowtuple
from repro.telescope.telescope import NetworkTelescope, TelescopeConfig
from tests.oracles.scalar_attack_task import scalar_attack_task


def _run_month(seed, workers=1):
    """A fresh world + scheduler per run: the fabric and servers carry
    per-run state."""
    population = PopulationBuilder(
        PopulationConfig(seed=seed, scale=8192, honeypot_scale=256)
    ).build()
    deployment = build_deployment()
    deployment.attach(population.internet)
    scheduler = AttackScheduler(
        population.internet, deployment, population,
        AttackScheduleConfig(seed=seed, attack_scale=128, workers=workers),
    )
    result = scheduler.run()
    deployment.detach(population.internet)
    return result, deployment, scheduler


def _schedule_fingerprint(result, deployment):
    """Everything a month produces, as comparable values: the event rows,
    the session ledgers, the malware corpus and the server counters the
    sharded merge reconstitutes from per-task deltas."""
    counters = []
    for honeypot in deployment.honeypots:
        for port, server in sorted(honeypot.services.items()):
            for attr in sorted(vars(server)):
                value = getattr(server, attr)
                if type(value) is int:
                    counters.append((honeypot.name, port, attr, value))
    return (
        result.log.to_jsonl(),
        result.sessions_attempted,
        result.sessions_dropped,
        sorted(result.multistage_sources),
        [(sample.family, sample.sha256) for sample in result.corpus.samples],
        counters,
    )


def _capture_month(seed, workers=1):
    registry = ActorRegistry()
    for index in range(40):
        registry.register(SourceInfo(
            address=10_000 + index,
            traffic_class=(TrafficClass.SCANNING_SERVICE if index < 10
                           else TrafficClass.MALICIOUS),
            visits_telescope=True,
            infected_misconfigured=index >= 30,
        ))
    telescope = NetworkTelescope(
        registry, GeoRegistry(seed), AsnRegistry(seed),
        TelescopeConfig(seed=seed, telnet_source_scale=65_536,
                        source_scale=512, packet_scale=131_072,
                        workers=workers),
    )
    return telescope.capture_month(), telescope


def _capture_fingerprint(capture):
    return (
        [encode_flowtuple(record) for record in capture.writer.iter_rows()],
        {str(protocol): sorted(sources) for protocol, sources
         in capture.sources_by_protocol.items()},
        {str(protocol): sorted(sources) for protocol, sources
         in capture.scanning_sources_by_protocol.items()},
        {str(protocol): packets for protocol, packets
         in capture.packets_by_protocol.items()},
        capture.rsdos_truth,
    )


class TestAttackMonthDeterminism:
    @pytest.mark.parametrize("seed", [7, 23])
    def test_serial_and_sharded_byte_identical(self, seed):
        result, deployment, _ = _run_month(seed, workers=1)
        baseline = _schedule_fingerprint(result, deployment)
        assert len(result.log)  # the month actually produced events
        for workers in (2, 5):
            sharded, lab, _ = _run_month(seed, workers=workers)
            assert _schedule_fingerprint(sharded, lab) == baseline, (
                f"K={workers}"
            )

    def test_task_timings_cover_every_honeypot_day(self):
        result, _, scheduler = _run_month(7, workers=4)
        timings = scheduler.task_timings
        assert timings and all(t.plane == "attacks" for t in timings)
        assert sum(t.events for t in timings) == len(result.log)
        honeypots = {h.name for h in scheduler.deployment.honeypots}
        assert {t.unit for t in timings} <= honeypots
        assert all(t.seconds >= 0.0 for t in timings)


class TestBatchScalarOracle:
    @staticmethod
    def _assert_tasks_match_oracle(seed, loss_rate=0.0):
        population = PopulationBuilder(PopulationConfig(
            seed=seed, scale=8192, honeypot_scale=256, loss_rate=loss_rate,
        )).build()
        deployment = build_deployment()
        deployment.attach(population.internet)
        scheduler = AttackScheduler(
            population.internet, deployment, population,
            AttackScheduleConfig(seed=seed, attack_scale=128),
        )
        plan = scheduler.plan().sessions
        compared = dropped = 0
        for (name, day), sessions in sorted(plan.items()):
            if not sessions:
                continue
            batch = _execute_attack_task(
                scheduler._worker_state(), (name, day, sessions)
            )
            scalar = scalar_attack_task(
                scheduler._worker_state(), (name, day, sessions)
            )
            assert batch.events == scalar.events, (name, day)
            assert batch.attempted == scalar.attempted
            assert batch.dropped == scalar.dropped
            assert batch.families == scalar.families
            assert batch.counters == scalar.counters
            assert (
                [(s.family, s.sha256) for s in batch.minted]
                == [(s.family, s.sha256) for s in scalar.minted]
            )
            compared += 1
            dropped += batch.dropped
        assert compared > 50  # the month genuinely exercised the matrix
        assert (dropped > 0) == (loss_rate > 0)
        deployment.detach(population.internet)

    @pytest.mark.parametrize("seed", [7, 23])
    def test_batch_drawn_sessions_match_scalar_oracle(self, seed):
        """Every (honeypot, day) task produces identical outcomes under
        the block-drawn path (``uniform_array`` timestamps, run-grouped
        ``handle_repeat`` driving, memoized classification) and the scalar
        differential oracle (per-event draws and per-payload ``handle``
        calls) — the fidelity contract behind the batch rewrite."""
        self._assert_tasks_match_oracle(seed)

    def test_lossy_sessions_match_scalar_oracle(self):
        """Under probe loss, the batch path's vectorized UDP loss verdicts
        and its per-session ``_task_lost`` draws match the oracle's
        per-datagram draws, and TCP sessions drop identically."""
        self._assert_tasks_match_oracle(7, loss_rate=0.12)


class TestTelescopeDeterminism:
    @pytest.mark.parametrize("seed", [7, 23])
    def test_serial_and_sharded_byte_identical(self, seed):
        capture, _ = _capture_month(seed, workers=1)
        baseline = _capture_fingerprint(capture)
        assert baseline[0]  # the capture actually produced FlowTuples
        for workers in (2, 5):
            sharded, _ = _capture_month(seed, workers=workers)
            assert _capture_fingerprint(sharded) == baseline, f"K={workers}"

    def test_task_timings_cover_protocols_and_rsdos(self):
        capture, telescope = _capture_month(7, workers=3)
        timings = telescope.task_timings
        assert timings and all(t.plane == "telescope" for t in timings)
        # Every FlowTuple the month filed was emitted under some task.
        assert (sum(t.events for t in timings)
                == len(list(capture.writer.iter_rows())))
        assert {t.unit for t in timings if t.unit != "rsdos"} <= {
            str(protocol) for protocol in capture.packets_by_protocol
        }


def _store():
    store = EventStore()
    store.add(AttackEvent(honeypot="Cowrie", protocol=ProtocolId.TELNET,
                          source=1, day=0, timestamp=10.0,
                          attack_type=AttackType.DICTIONARY))
    store.add(AttackEvent(honeypot="Conpot", protocol=ProtocolId.MODBUS,
                          source=1, day=1, timestamp=86_500.0,
                          attack_type=AttackType.DATA_POISONING))
    store.add(AttackEvent(honeypot="Cowrie", protocol=ProtocolId.TELNET,
                          source=2, day=0, timestamp=20.0,
                          attack_type=AttackType.SCANNING))
    return store


class TestEventStoreShim:
    def test_multistage_candidates_memoized_and_invalidated(self):
        store = _store()
        first = store.multistage_candidates()
        assert set(first) == {1}  # source 1 touched telnet + modbus
        assert store.multistage_candidates() is first  # cache hit
        store.add(AttackEvent(honeypot="U-Pot", protocol=ProtocolId.UPNP,
                              source=2, day=2, timestamp=2 * 86_400.0,
                              attack_type=AttackType.SCANNING))
        rebuilt = store.multistage_candidates()
        assert rebuilt is not first
        assert set(rebuilt) == {1, 2}


class TestWorkersConfig:
    def test_bad_workers_raises_config_error(self):
        with pytest.raises(ConfigError):
            AttackScheduleConfig(workers=0)
        with pytest.raises(ConfigError):
            TelescopeConfig(workers=-1)

    def test_workers_do_not_change_equality_or_fingerprint(self):
        from repro.core.engine import config_fingerprint

        serial = AttackScheduleConfig(seed=7)
        sharded = AttackScheduleConfig(seed=7, workers=8)
        assert serial == sharded
        assert config_fingerprint(serial) == config_fingerprint(sharded)
        assert (config_fingerprint(TelescopeConfig(seed=7))
                == config_fingerprint(TelescopeConfig(seed=7, workers=6)))

    def test_cli_rejects_bad_workers_with_exit_2(self, capsys):
        assert main(["attacks", "--quick", "--attack-workers", "0"]) == 2
        assert "configuration error" in capsys.readouterr().err
