"""Process-pool executor determinism: serial vs process bytes.

The three sharded planes can fan their task batches out to worker
processes (``--executor process``): each batch is one picklable
:class:`~repro.core.tasks.TaskPlan`, the serial rung builds its state
once per batch, pool workers build the same state in an initializer, and
the parent merges results in canonical order.  These tests pin the
contract down: byte-identical output against the serial path for every
worker count and seed, picklable worker state on all three planes, one
state build per serial batch, the ``auto`` rule, striped chunk
assignment, per-worker chunk timings, and crash-safe ``--resume`` after a
worker dies mid-month.
"""

from __future__ import annotations

import pickle

import pytest

from repro.attacks.actors import ActorRegistry, SourceInfo
from repro.attacks.schedule import (
    AttackScheduleConfig,
    AttackScheduler,
    _execute_attack_task,
)
from repro.core import faults
from repro.core.faults import FaultPlan
from repro.core import tasks
from repro.core.tasks import (
    ChunkTiming,
    TaskJournal,
    TaskPlan,
    _striped_chunks,
    resolve_executor,
    run_tasks,
)
from repro.core.taxonomy import TrafficClass
from repro.honeypots import build_deployment
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.net.asn import AsnRegistry
from repro.net.errors import TaskFailure
from repro.net.geo import GeoRegistry
from repro.scanner.zmap import InternetScanner, ScanConfig
from repro.telescope.flowtuple import encode_flowtuple
from repro.telescope.telescope import NetworkTelescope, TelescopeConfig


# ---------------------------------------------------------------------------
# World builders — the same shapes the sharding/fault suites compare on
# ---------------------------------------------------------------------------

_LOSSY = dict(scale=16_384, honeypot_scale=512, loss_rate=0.12)


def _scanner(seed, shards=1, executor=None):
    population = PopulationBuilder(
        PopulationConfig(seed=seed, **_LOSSY)
    ).build()
    return InternetScanner(
        population.internet,
        ScanConfig(shards=shards, executor=executor),
    )


def _run_month(seed, workers=1, executor=None, journal=None):
    population = PopulationBuilder(
        PopulationConfig(seed=seed, scale=8192, honeypot_scale=256)
    ).build()
    deployment = build_deployment()
    deployment.attach(population.internet)
    scheduler = AttackScheduler(
        population.internet, deployment, population,
        AttackScheduleConfig(seed=seed, attack_scale=128, workers=workers,
                             executor=executor),
    )
    try:
        result = scheduler.run(journal=journal)
    finally:
        deployment.detach(population.internet)
    return result, deployment, scheduler


def _schedule_fingerprint(result, deployment):
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


def _telescope(seed, workers=1, executor=None):
    registry = ActorRegistry()
    for index in range(40):
        registry.register(SourceInfo(
            address=10_000 + index,
            traffic_class=(TrafficClass.SCANNING_SERVICE if index < 10
                           else TrafficClass.MALICIOUS),
            visits_telescope=True,
            infected_misconfigured=index >= 30,
        ))
    return NetworkTelescope(
        registry, GeoRegistry(seed), AsnRegistry(seed),
        TelescopeConfig(seed=seed, telnet_source_scale=65_536,
                        source_scale=512, packet_scale=131_072,
                        workers=workers, executor=executor),
    )


def _capture_fingerprint(capture):
    return (
        [encode_flowtuple(record) for record in capture.writer.iter_rows()],
        {str(protocol): sorted(sources) for protocol, sources
         in capture.sources_by_protocol.items()},
        capture.rsdos_truth,
    )


# ---------------------------------------------------------------------------
# Byte identity: serial vs process on every plane
# ---------------------------------------------------------------------------

class TestProcessPoolByteIdentity:
    @pytest.mark.parametrize("seed", [7, 23])
    def test_scan_plane(self, seed):
        baseline = _scanner(seed).run_campaign().to_jsonl()
        assert baseline
        for shards in (2, 5):
            scanner = _scanner(seed, shards=shards, executor="process")
            assert scanner.run_campaign().to_jsonl() == baseline, (
                f"K={shards}"
            )
            assert scanner.executor_stats.kind == "process"

    @pytest.mark.parametrize("seed", [7, 23])
    def test_attack_plane(self, seed):
        result, deployment, _ = _run_month(seed)
        baseline = _schedule_fingerprint(result, deployment)
        assert len(result.log)
        for workers in (2, 5):
            sharded, lab, scheduler = _run_month(
                seed, workers=workers, executor="process"
            )
            assert _schedule_fingerprint(sharded, lab) == baseline, (
                f"K={workers}"
            )
            assert scheduler.executor_stats.kind == "process"

    @pytest.mark.parametrize("seed", [7, 23])
    def test_telescope_plane(self, seed):
        baseline = _capture_fingerprint(_telescope(seed).capture_month())
        for workers in (2, 5):
            shell = _telescope(seed, workers=workers, executor="process")
            assert _capture_fingerprint(shell.capture_month()) == baseline, (
                f"K={workers}"
            )
            assert shell.executor_stats.kind == "process"


# ---------------------------------------------------------------------------
# Worker state must cross the process boundary intact
# ---------------------------------------------------------------------------

class TestPicklability:
    def test_attack_worker_state_round_trips(self):
        """A pickled worker state executes tasks identically to the live
        one — the property the process plan's per-worker pickle rests on."""
        population = PopulationBuilder(
            PopulationConfig(seed=7, scale=8192, honeypot_scale=256)
        ).build()
        deployment = build_deployment()
        deployment.attach(population.internet)
        scheduler = AttackScheduler(
            population.internet, deployment, population,
            AttackScheduleConfig(seed=7, attack_scale=128),
        )
        plan = scheduler.plan().sessions
        state = scheduler._worker_state()
        cloned = pickle.loads(pickle.dumps(state))
        ran = 0
        for (name, day), sessions in sorted(plan.items())[:6]:
            if not sessions:
                continue
            live = _execute_attack_task(state, (name, day, sessions))
            copied = _execute_attack_task(cloned, (name, day, sessions))
            assert copied.events == live.events, (name, day)
            assert copied.attempted == live.attempted
            assert copied.dropped == live.dropped
            assert copied.families == live.families
            ran += 1
        assert ran  # the slice actually exercised tasks
        deployment.detach(population.internet)

    def test_plane_process_contexts_pickle(self):
        """Every plane's TaskPlan context survives a pickle round trip."""
        scanner = _scanner(7, shards=2)
        pickle.loads(pickle.dumps((scanner.internet, scanner.config)))
        shell = _telescope(7, workers=2)
        pickle.loads(pickle.dumps(shell.config))

    def test_task_failure_pickles_with_ref(self):
        """TaskFailure crosses the pool result queue with its ref intact."""
        from repro.core.tasks import TaskRef

        failure = TaskFailure(
            TaskRef("attacks", "Cowrie", 3),
            RuntimeError("worker died"),
            attempts=2,
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert isinstance(clone, TaskFailure)
        assert clone.ref == failure.ref
        assert clone.attempts == failure.attempts
        assert type(clone.cause) is RuntimeError
        assert str(clone) == str(failure)


# ---------------------------------------------------------------------------
# Striped chunking and per-worker chunk timings
# ---------------------------------------------------------------------------

class TestStripedChunks:
    def test_interleaved_assignment(self):
        assert _striped_chunks(range(10), 3) == [
            [0, 3, 6, 9], [1, 4, 7], [2, 5, 8],
        ]
        # Callers clamp n_chunks to the task count; every index appears
        # exactly once whatever the shape.
        flat = sorted(
            index for chunk in _striped_chunks(range(7), 4)
            for index in chunk
        )
        assert flat == list(range(7))

    def test_process_chunk_timings_carry_worker_pids(self):
        _, _, scheduler = _run_month(7, workers=2, executor="process")
        stats = scheduler.executor_stats
        assert stats.kind == "process"
        assert stats.workers == 2
        assert stats.chunks, "process batch recorded no chunk timings"
        assert all(isinstance(c, ChunkTiming) for c in stats.chunks)
        assert all(c.worker != 0 for c in stats.chunks)  # real pids
        assert sum(c.tasks for c in stats.chunks) == stats.tasks

    def test_auto_picks_process_for_workers_on_a_multicore_box(
        self, monkeypatch
    ):
        monkeypatch.setattr(tasks.os, "cpu_count", lambda: 4)
        assert resolve_executor("auto", workers=4) == "process"
        assert resolve_executor(None, workers=2) == "process"
        assert resolve_executor("auto", workers=1) == "serial"
        assert resolve_executor("serial", workers=4) == "serial"
        monkeypatch.setattr(tasks.os, "cpu_count", lambda: 1)
        assert resolve_executor("auto", workers=4) == "serial"
        assert resolve_executor("process", workers=4) == "process"


# ---------------------------------------------------------------------------
# One task description: the serial rung runs the plan as the workers do
# ---------------------------------------------------------------------------

def _counting_setup(built):
    """Record and return a fresh state object per call."""
    built.append(object())
    return built[-1]


def _state_and_payload(state, payload):
    return state, payload


class TestTaskPlan:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_serial_rung_builds_state_once_per_batch(self, workers):
        built = []
        plan = TaskPlan(run=_state_and_payload, payloads=list(range(7)),
                        context=built, setup=_counting_setup)
        results = run_tasks(plan, workers, executor="serial")
        assert len(built) == 1
        assert [payload for _, payload in results] == list(range(7))
        assert all(state is built[0] for state, _ in results)
        run_tasks(plan, workers, executor="serial")
        assert len(built) == 2  # once per batch, not once per plan

    def test_serial_rung_without_setup_runs_against_context(self):
        context = object()
        plan = TaskPlan(run=_state_and_payload, payloads=["a", "b"],
                        context=context)
        assert run_tasks(plan, 1) == [(context, "a"), (context, "b")]


# ---------------------------------------------------------------------------
# Crash-safe resume across the process boundary
# ---------------------------------------------------------------------------

class TestProcessResume:
    def test_attack_plane_resumes_after_worker_death(self, tmp_path):
        """A fatal ``task`` fault inside a worker process kills the month;
        the journal holds the completed tasks and a process-pool resume
        finishes the month byte-identically."""
        result, deployment, _ = _run_month(7)
        baseline = _schedule_fingerprint(result, deployment)
        with faults.injected(FaultPlan.parse("task:0.05:fatal", seed=2)):
            with pytest.raises(TaskFailure):
                _run_month(
                    7, workers=2, executor="process",
                    journal=TaskJournal(tmp_path / "attacks"),
                )
        completed = len(TaskJournal(tmp_path / "attacks"))
        assert completed > 0  # the dead month left real progress behind
        journal = TaskJournal(tmp_path / "attacks", resume=True)
        resumed, lab, scheduler = _run_month(
            7, workers=2, executor="process", journal=journal
        )
        assert _schedule_fingerprint(resumed, lab) == baseline
        assert journal.hits == completed
        assert scheduler.executor_stats.kind == "process"
