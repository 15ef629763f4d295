"""Deterministic fault injection, supervised retries, crash-safe resume.

The failure model mirrors the probe-loss model: whether an injection
site fires is a pure function of ``(seed, site, key, attempt)``, so an
injected failure schedule is byte-reproducible under any worker count.
These tests pin down the spec parser, the keyed verdicts, the supervised
executor (:func:`~repro.core.tasks.run_tasks`), the per-task completion
journal that makes campaigns resumable, the phase cache's versioned disk
header, the engine's ``fail_policy="degrade"`` path, and the CLI knobs —
plus the :class:`~repro.internet.fabric.ProbeLossModel` pickle contract
the journal and phase cache both lean on.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import threading
import time

import pytest

from repro.attacks.actors import ActorRegistry, SourceInfo
from repro.attacks.schedule import AttackScheduleConfig, AttackScheduler
from repro.cli import main
from repro.core import faults
from repro.core.config import StudyConfig
from repro.core.engine import (
    ENGINE_SCHEMA_VERSION,
    PhaseCache,
    PhaseGraph,
    PhaseSpec,
    StudyEngine,
)
from repro.core.faults import FaultInjector, FaultPlan, FaultRule
from repro.core.integrity import wrap_envelope
from repro.core.taxonomy import TrafficClass
from repro.core.tasks import (
    JOURNAL_SCHEMA_VERSION,
    TaskJournal,
    TaskPlan,
    TaskRef,
    run_tasks,
)
from repro.honeypots import build_deployment
from repro.internet.fabric import ProbeLossModel, SimulatedInternet
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.net.asn import AsnRegistry
from repro.net.errors import (
    ConfigError,
    FatalFaultError,
    FaultError,
    TaskFailure,
    TransientFaultError,
)
from repro.net.geo import GeoRegistry
from repro.scanner.zmap import InternetScanner, ScanConfig
from repro.telescope.flowtuple import encode_flowtuple
from repro.telescope.telescope import NetworkTelescope, TelescopeConfig


# ---------------------------------------------------------------------------
# World builders — the same shapes the sharding suites compare bytes on
# ---------------------------------------------------------------------------

_LOSSY = dict(scale=16_384, honeypot_scale=512, loss_rate=0.12)


def _scan_world(seed):
    return PopulationBuilder(PopulationConfig(seed=seed, **_LOSSY)).build()


def _scanner(seed, shards=1, retries=0):
    return InternetScanner(
        _scan_world(seed).internet,
        ScanConfig(shards=shards, retries=retries),
    )


def _run_month(seed, workers=1, retries=0, journal=None):
    """A fresh attack-plane world per run (fabric/servers carry state)."""
    population = PopulationBuilder(
        PopulationConfig(seed=seed, scale=8192, honeypot_scale=256)
    ).build()
    deployment = build_deployment()
    deployment.attach(population.internet)
    scheduler = AttackScheduler(
        population.internet, deployment, population,
        AttackScheduleConfig(seed=seed, attack_scale=128, workers=workers,
                             retries=retries),
    )
    try:
        result = scheduler.run(journal=journal)
    finally:
        deployment.detach(population.internet)
    return result, deployment


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


def _telescope(seed, workers=1, retries=0):
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
                        workers=workers, retries=retries),
    )


def _capture_fingerprint(capture):
    return (
        [encode_flowtuple(record) for record in capture.writer.iter_rows()],
        {str(protocol): sorted(sources) for protocol, sources
         in capture.sources_by_protocol.items()},
        capture.rsdos_truth,
    )


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------

class TestFaultPlanParsing:
    def test_multi_site_spec_parses(self):
        plan = FaultPlan.parse(
            "task:0.2,fabric.connect:0.05:transient,dataset.load:1:fatal",
            seed=11,
        )
        assert plan.seed == 11
        assert set(plan.rules) == {"task", "fabric.connect", "dataset.load"}
        assert plan.rules["task"].kind == "transient"  # the default
        assert plan.rules["dataset.load"].kind == "fatal"
        assert plan.rules["fabric.connect"].rate == pytest.approx(0.05)

    def test_describe_names_every_rule(self):
        plan = FaultPlan.parse("task:0.25,cache.io:1:fatal")
        assert plan.describe() == "task:0.25:transient, cache.io:1:fatal"

    @pytest.mark.parametrize("spec", [
        "",                       # empty
        "  ,  ",                  # only separators
        "task",                   # no rate
        "task:0.5:fatal:extra",   # too many fields
        "task:lots",              # non-numeric rate
        "task:1.5",               # rate out of [0, 1]
        "task:-0.1",              # negative rate
        "warp:0.5",               # unknown site
        "task:0.5:sometimes",     # unknown kind
        "task:0.2,task:0.3",      # duplicate site
        "ledger.io:0.5",          # retired site
        "lease.expire:0.5",       # retired site
    ])
    def test_bad_specs_raise_config_error(self, spec):
        with pytest.raises(ConfigError):
            FaultPlan.parse(spec)

    def test_rule_validates_directly(self):
        with pytest.raises(ConfigError):
            FaultRule("task", 0.5, "eventual")


# ---------------------------------------------------------------------------
# Keyed verdicts
# ---------------------------------------------------------------------------

def _plan(spec, seed=11):
    return FaultPlan.parse(spec, seed=seed)


class TestInjectorDeterminism:
    def test_verdict_is_pure_in_site_key_and_attempt(self):
        first = FaultInjector(_plan("task:0.5"))
        second = FaultInjector(_plan("task:0.5"))
        verdicts = [
            first.would_fail("task", "attacks", "Cowrie", day) is not None
            for day in range(64)
        ]
        assert verdicts == [
            second.would_fail("task", "attacks", "Cowrie", day) is not None
            for day in range(64)
        ]
        assert any(verdicts) and not all(verdicts)

    def test_seed_reshuffles_the_schedule(self):
        a = FaultInjector(_plan("task:0.5", seed=11))
        b = FaultInjector(_plan("task:0.5", seed=12))
        assert [
            a.would_fail("task", "u", day) is not None for day in range(64)
        ] != [
            b.would_fail("task", "u", day) is not None for day in range(64)
        ]

    def test_attempt_context_advances_the_schedule(self):
        injector = FaultInjector(_plan("task:0.5"))

        def fires(day, attempt):
            with faults.task_attempt(attempt):
                return injector.would_fail("task", "u", day) is not None

        assert any(
            fires(day, 0) != fires(day, 1) for day in range(64)
        )

    def test_rate_bounds(self):
        never = FaultInjector(_plan("task:0"))
        always = FaultInjector(_plan("task:1"))
        assert all(never.would_fail("task", d) is None for d in range(32))
        assert all(always.would_fail("task", d) is not None
                   for d in range(32))

    def test_unlisted_site_never_fires(self):
        injector = FaultInjector(_plan("task:1"))
        assert injector.would_fail("cache.io", "phase.load", "k") is None

    def test_check_raises_typed_error_with_site_and_key(self):
        with pytest.raises(TransientFaultError) as transient:
            FaultInjector(_plan("task:1")).check("task", "scan", "telnet", 3)
        assert transient.value.site == "task"
        assert transient.value.key == ("scan", "telnet", 3)
        assert transient.value.transient
        with pytest.raises(FatalFaultError) as fatal:
            FaultInjector(_plan("task:1:fatal")).check("task", "x")
        assert not fatal.value.transient
        assert isinstance(fatal.value, FaultError)

    def test_maybe_fail_is_noop_without_injector(self):
        assert faults.active() is None
        faults.maybe_fail("task", "anything")  # must not raise

    def test_injected_scope_installs_and_restores(self):
        assert faults.active() is None
        with faults.injected(_plan("task:1:fatal")) as injector:
            assert faults.active() is injector
            with pytest.raises(FatalFaultError):
                faults.maybe_fail("task", "x")
        assert faults.active() is None


# ---------------------------------------------------------------------------
# The supervised executor
# ---------------------------------------------------------------------------

def _call(state, thunk):
    """The ``run`` of the closure plans below: call the task's thunk."""
    return thunk()


class TestRunTasksSupervision:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_results_come_back_in_submission_order(self, workers):
        thunks = [lambda i=i: i * i for i in range(23)]
        plan = TaskPlan(run=_call, payloads=thunks)
        assert run_tasks(plan, workers, executor="serial") == [
            i * i for i in range(23)
        ]

    def test_refs_length_mismatch_is_value_error(self):
        with pytest.raises(ValueError, match="2 payloads but 1 refs"):
            run_tasks(TaskPlan(run=_call, payloads=[lambda: 1, lambda: 2]),
                      1, refs=[TaskRef("p", "u", 0)])

    def test_failure_wraps_in_task_failure_naming_the_task(self):
        def boom():
            raise ValueError("bad day")

        ref = TaskRef("attacks", "Cowrie", 13)
        with pytest.raises(TaskFailure) as failure:
            run_tasks(TaskPlan(run=_call, payloads=[lambda: 1, boom]), 1,
                      refs=[TaskRef("attacks", "Cowrie", 12), ref])
        assert failure.value.ref == ref
        assert failure.value.attempts == 1
        assert "attacks.Cowrie.13" in str(failure.value)
        assert isinstance(failure.value.cause, ValueError)

    def test_task_failure_is_never_double_wrapped(self):
        inner = TaskFailure(TaskRef("scan", "telnet", 2), ValueError("x"),
                            attempts=1)

        def reraise():
            raise inner

        with pytest.raises(TaskFailure) as failure:
            run_tasks(TaskPlan(run=_call, payloads=[reraise]), 1)
        assert failure.value is inner

    def test_fatal_fault_fails_despite_retries(self):
        with faults.injected(_plan("task:1:fatal")):
            with pytest.raises(TaskFailure) as failure:
                run_tasks(TaskPlan(run=_call, payloads=[lambda: 1]), 1,
                          refs=[TaskRef("scan", "telnet", 0)], retries=9)
        assert failure.value.attempts == 1
        assert isinstance(failure.value.cause, FatalFaultError)

    def test_transient_fault_exhausts_after_retries(self):
        with faults.injected(_plan("task:1")):
            with pytest.raises(TaskFailure) as failure:
                run_tasks(TaskPlan(run=_call, payloads=[lambda: 1]), 1,
                          refs=[TaskRef("scan", "telnet", 0)], retries=3)
        assert failure.value.attempts == 4
        assert isinstance(failure.value.cause, TransientFaultError)

    def test_transient_fault_clears_on_retry(self):
        plan = _plan("task:0.5")
        injector = FaultInjector(plan)

        def fires(day, attempt):
            with faults.task_attempt(attempt):
                return injector.would_fail("task", "p", "u", day) is not None

        day = next(d for d in range(256) if fires(d, 0) and not fires(d, 1))
        calls = []
        with faults.injected(plan):
            results = run_tasks(
                TaskPlan(run=_call, payloads=[lambda: calls.append(1) or 41]),
                1, refs=[TaskRef("p", "u", day)], retries=1,
            )
        # Attempt 0 faulted before the thunk ran; attempt 1 succeeded.
        assert results == [41]
        assert len(calls) == 1

    def test_failure_cancels_outstanding_work(self):
        executed = []
        lock = threading.Lock()

        def boom():
            raise ValueError("first task dies immediately")

        def slow(index):
            def task():
                time.sleep(0.005)
                with lock:
                    executed.append(index)
                return index
            return task

        thunks = [boom] + [slow(i) for i in range(1, 64)]
        with pytest.raises(TaskFailure) as failure:
            run_tasks(TaskPlan(run=_call, payloads=thunks), 2,
                      executor="serial")
        assert failure.value.ref.key() == "tasks.task.0"
        # The month must not run to completion behind the error: the
        # chunks not yet started when task 0 died were cancelled.
        assert len(executed) < 63


class TestTaskJournal:
    def _ref(self, day=0):
        return TaskRef("scan", "telnet", day)

    def test_store_then_load_round_trips(self, tmp_path):
        journal = TaskJournal(tmp_path, resume=True)
        journal.store(self._ref(), {"rows": [1, 2, 3]})
        assert journal.stores == 1
        found, result = journal.load(self._ref())
        assert found and result == {"rows": [1, 2, 3]}
        assert journal.hits == 1
        assert len(journal) == 1

    def test_load_is_resume_gated(self, tmp_path):
        TaskJournal(tmp_path).store(self._ref(), 7)
        fresh = TaskJournal(tmp_path, resume=False)
        assert fresh.load(self._ref()) == (False, None)
        assert TaskJournal(tmp_path, resume=True).load(self._ref()) == (True, 7)

    def test_garbage_entry_reads_as_miss(self, tmp_path):
        journal = TaskJournal(tmp_path, resume=True)
        path = os.path.join(journal.directory, self._ref().filename())
        os.makedirs(journal.directory, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert journal.load(self._ref()) == (False, None)

    def test_stale_schema_reads_as_miss(self, tmp_path):
        journal = TaskJournal(tmp_path, resume=True)
        path = os.path.join(journal.directory, self._ref().filename())
        os.makedirs(journal.directory, exist_ok=True)
        entry = {"schema": JOURNAL_SCHEMA_VERSION + 1,
                 "key": self._ref().key(), "result": 7}
        with open(path, "wb") as handle:
            pickle.dump(entry, handle)
        assert journal.load(self._ref()) == (False, None)

    def test_older_layout_reads_as_clean_miss(self, tmp_path):
        # A version-2 entry may hold a telescope task result of a deleted
        # type; it must miss without being quarantined as damage, and the
        # re-run's store replaces it.
        assert JOURNAL_SCHEMA_VERSION == 3
        journal = TaskJournal(tmp_path, resume=True)
        path = os.path.join(journal.directory, self._ref().filename())
        os.makedirs(journal.directory, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(wrap_envelope(
                pickle.dumps(7), schema=2, kind="journal",
                key=self._ref().key(), fingerprint=journal.fingerprint,
            ))
        assert journal.load(self._ref()) == (False, None)
        assert journal.quarantined == []
        assert os.path.exists(path)
        journal.store(self._ref(), 8)
        assert journal.load(self._ref()) == (True, 8)

    def test_colliding_key_reads_as_miss(self, tmp_path):
        journal = TaskJournal(tmp_path, resume=True)
        journal.store(self._ref(0), 7)
        # Simulate a file landing under another task's name.
        os.replace(
            os.path.join(journal.directory, self._ref(0).filename()),
            os.path.join(journal.directory, self._ref(1).filename()),
        )
        assert journal.load(self._ref(1)) == (False, None)

    def test_journal_io_faults_degrade_never_raise(self, tmp_path):
        journal = TaskJournal(tmp_path, resume=True)
        journal.store(self._ref(), 7)  # a valid entry, written fault-free
        with faults.injected(_plan("cache.io:1:fatal")):
            journal.store(self._ref(1), 8)       # skipped write
            assert journal.load(self._ref()) == (False, None)  # miss
        assert journal.stores == 1
        assert len(journal) == 1
        assert journal.load(self._ref()) == (True, 7)  # intact afterwards

    def test_run_tasks_replays_journal_instead_of_executing(self, tmp_path):
        refs = [TaskRef("p", "u", index) for index in range(4)]
        journal = TaskJournal(tmp_path)
        plan = TaskPlan(run=_call,
                        payloads=[lambda i=i: i * i for i in range(4)])
        first = run_tasks(plan, 1, refs=refs, journal=journal)
        assert journal.stores == 4

        def untouchable():
            raise AssertionError("journaled task must not re-execute")

        replay = TaskJournal(tmp_path, resume=True)
        second = run_tasks(TaskPlan(run=_call, payloads=[untouchable] * 4),
                           1, refs=refs, journal=replay)
        assert second == first == [0, 1, 4, 9]
        assert replay.hits == 4


# ---------------------------------------------------------------------------
# The fabric.connect site: an infrastructure fault, not modelled loss
# ---------------------------------------------------------------------------

class TestFabricConnectSite:
    def test_fatal_connect_fault_has_zero_side_effects(self):
        internet = SimulatedInternet(loss_rate=0.5)
        seen = []
        internet.observers.append(lambda *probe: seen.append(probe))
        with faults.injected(_plan("fabric.connect:1:fatal")):
            with pytest.raises(FatalFaultError):
                internet.tcp_connect(1, 2, 23)
            with pytest.raises(FatalFaultError):
                internet.try_tcp_connect(1, 2, 23)
            with pytest.raises(FatalFaultError):
                internet.udp_query(1, 2, 53, b"probe")
        # No observer saw the probes and no loss verdict was drawn: the
        # fault fires before any side effect, so a supervised retry replays
        # the flow from an untouched fabric.
        assert seen == []
        assert internet.loss_model._attempts == {}

    def test_transient_connect_fault_is_typed(self):
        internet = SimulatedInternet()
        with faults.injected(_plan("fabric.connect:1")):
            with pytest.raises(TransientFaultError) as error:
                internet.udp_query(1, 2, 53, b"probe")
        assert error.value.site == "fabric.connect"


# ---------------------------------------------------------------------------
# Transient retries leave the planes' output byte-identical
# ---------------------------------------------------------------------------

class TestTransientRetryByteIdentity:
    def test_scan_plane(self):
        baseline = _scanner(7, shards=1).run_campaign().to_jsonl()
        plan = _plan("task:0.3")
        # Sanity: without retries the same plan aborts the campaign.
        with faults.injected(plan):
            with pytest.raises(TaskFailure):
                _scanner(7, shards=3).run_campaign()
        for shards in (1, 3):
            with faults.injected(plan):
                scanner = _scanner(7, shards=shards, retries=8)
                assert scanner.run_campaign().to_jsonl() == baseline, (
                    f"K={shards}"
                )

    def test_attack_plane(self):
        result, deployment = _run_month(7)
        baseline = _schedule_fingerprint(result, deployment)
        plan = _plan("task:0.3")
        with faults.injected(plan):
            with pytest.raises(TaskFailure):
                _run_month(7)
        for workers in (1, 3):
            with faults.injected(plan):
                retried, lab = _run_month(7, workers=workers, retries=8)
            assert _schedule_fingerprint(retried, lab) == baseline, (
                f"K={workers}"
            )


# ---------------------------------------------------------------------------
# Crash-safe resume: interrupted + resumed == uninterrupted, any K
# ---------------------------------------------------------------------------

_INTERRUPT = "task:0.25:fatal,cache.io:0.2:transient,fabric.connect:0.00002:fatal"


class TestResumeByteIdentity:
    def test_scan_plane(self, tmp_path):
        scanner = _scanner(7, shards=3)
        baseline = scanner.run_campaign().to_jsonl()
        probes = scanner.probes_sent
        total_tasks = 3 * len(scanner.config.protocols)
        with faults.injected(FaultPlan.parse(_INTERRUPT, seed=3)):
            with pytest.raises(TaskFailure):
                _scanner(7, shards=3).run_campaign(
                    journal=TaskJournal(tmp_path / "scan")
                )
        completed = len(TaskJournal(tmp_path / "scan"))
        assert 0 < completed < total_tasks  # genuinely partial
        for shards in (1, 3):
            journal = TaskJournal(tmp_path / "scan", resume=True)
            resumed = _scanner(7, shards=shards, retries=0)
            database = resumed.run_campaign(journal=journal)
            assert database.to_jsonl() == baseline, f"K={shards}"
            if shards == 3:
                assert journal.hits == completed
                assert resumed.probes_sent == probes

    def test_attack_plane(self, tmp_path):
        result, deployment = _run_month(7)
        baseline = _schedule_fingerprint(result, deployment)
        with faults.injected(FaultPlan.parse(_INTERRUPT, seed=2)):
            with pytest.raises(TaskFailure):
                _run_month(7, journal=TaskJournal(tmp_path / "attacks"))
        assert len(TaskJournal(tmp_path / "attacks")) > 0
        for workers in (1, 3):
            journal = TaskJournal(tmp_path / "attacks", resume=True)
            resumed, lab = _run_month(7, workers=workers, journal=journal)
            assert _schedule_fingerprint(resumed, lab) == baseline, (
                f"K={workers}"
            )
            assert journal.hits > 0

    def test_telescope_plane(self, tmp_path):
        baseline = _capture_fingerprint(_telescope(7).capture_month())
        with faults.injected(FaultPlan.parse("task:0.25:fatal", seed=6)):
            with pytest.raises(TaskFailure):
                _telescope(7).capture_month(
                    journal=TaskJournal(tmp_path / "telescope")
                )
        assert len(TaskJournal(tmp_path / "telescope")) > 0
        journal = TaskJournal(tmp_path / "telescope", resume=True)
        capture = _telescope(7, workers=3).capture_month(journal=journal)
        assert _capture_fingerprint(capture) == baseline
        assert journal.hits > 0


# ---------------------------------------------------------------------------
# The phase cache's versioned disk header
# ---------------------------------------------------------------------------

class TestPhaseCacheHeader:
    KEY = PhaseCache.key_for("zmap", "fp")

    def test_header_round_trips_through_disk(self, tmp_path):
        PhaseCache(directory=tmp_path).put(self.KEY, {"zmap_db": 41}, "fp")
        artifacts, disk = PhaseCache(directory=tmp_path).get(self.KEY, "fp")
        assert artifacts == {"zmap_db": 41}
        assert disk

    def test_foreign_fingerprint_is_miss(self, tmp_path):
        PhaseCache(directory=tmp_path).put(self.KEY, {"zmap_db": 41}, "fp")
        assert PhaseCache(directory=tmp_path).get(self.KEY, "other") == (
            None, False,
        )

    def test_legacy_unwrapped_entry_is_miss(self, tmp_path):
        os.makedirs(tmp_path, exist_ok=True)
        with open(tmp_path / f"{self.KEY}.pkl", "wb") as handle:
            pickle.dump({"zmap_db": 41}, handle)  # pre-header layout
        assert PhaseCache(directory=tmp_path).get(self.KEY, "fp") == (
            None, False,
        )

    def test_stale_schema_is_miss(self, tmp_path):
        with open(tmp_path / f"{self.KEY}.pkl", "wb") as handle:
            pickle.dump({"schema": ENGINE_SCHEMA_VERSION + 1,
                         "fingerprint": "fp",
                         "artifacts": {"zmap_db": 41}}, handle)
        assert PhaseCache(directory=tmp_path).get(self.KEY, "fp") == (
            None, False,
        )
        # An older envelope may hold stores in a layout the current
        # ``ColumnTable`` stores cannot serve (version 2: ``array``
        # columns; version 3: per-field column attributes; version 5: a
        # chunked telescope writer) or bytes the current phases no longer
        # produce (version 4: XMPP stream ids shifted by other peers'
        # sessions): it must miss.
        assert ENGINE_SCHEMA_VERSION == 6
        for schema in (2, 5):
            with open(tmp_path / f"{self.KEY}.pkl", "wb") as handle:
                handle.write(wrap_envelope(
                    pickle.dumps({"zmap_db": 41}), schema=schema,
                    kind="phase", key=self.KEY, fingerprint="fp",
                ))
            assert PhaseCache(directory=tmp_path).get(self.KEY, "fp") == (
                None, False,
            )

    def test_cache_io_faults_degrade_to_miss(self, tmp_path):
        with faults.injected(_plan("cache.io:1:fatal")):
            PhaseCache(directory=tmp_path).put(self.KEY, {"zmap_db": 41}, "fp")
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".pkl")]  # dump skipped, no error
        PhaseCache(directory=tmp_path).put(self.KEY, {"zmap_db": 41}, "fp")
        with faults.injected(_plan("cache.io:1:fatal")):
            assert PhaseCache(directory=tmp_path).get(self.KEY, "fp") == (
                None, False,
            )  # load faulted into a miss, no error


# ---------------------------------------------------------------------------
# Degradation policy: optional phases may fail, the study carries on
# ---------------------------------------------------------------------------

def _toy_graph(calls):
    """alpha -> x; flaky (optional) -> y; consumer(x, y) -> z;
    downstream (optional, y) -> w.  ``flaky`` only fails when the
    ``dataset.load`` site is armed."""
    graph = PhaseGraph()
    graph.register(PhaseSpec(
        name="alpha", provides=("x",),
        run=lambda e: calls.append("alpha") or {"x": 1},
    ))

    def flaky(engine):
        calls.append("flaky")
        faults.maybe_fail("dataset.load", "toy")
        return {"y": 2}

    graph.register(PhaseSpec(
        name="flaky", provides=("y",), requires=("x",), optional=True,
        run=flaky,
    ))

    def consumer(engine):
        calls.append("consumer")
        return {"z": (engine.artifact("x"), engine.artifact("y"))}

    graph.register(PhaseSpec(
        name="consumer", provides=("z",), requires=("x", "y"), run=consumer,
    ))

    def downstream(engine):
        calls.append("downstream")
        return {"w": engine.artifact("y") * 2}  # would die on a None y

    graph.register(PhaseSpec(
        name="downstream", provides=("w",), requires=("y",), optional=True,
        run=downstream,
    ))
    return graph


def _toy_engine(calls, fail_policy, cache):
    config = StudyConfig.quick(seed=5)
    config.fail_policy = fail_policy
    return StudyEngine(config, graph=_toy_graph(calls), cache=cache)


class TestDegradePolicy:
    def test_abort_policy_propagates_the_failure(self):
        engine = _toy_engine([], "abort", cache=False)
        with faults.injected(_plan("dataset.load:1:fatal")):
            with pytest.raises(FatalFaultError):
                engine.run_all()

    def test_degrade_records_and_cascades(self):
        calls = []
        engine = _toy_engine(calls, "degrade", cache=False)
        with faults.injected(_plan("dataset.load:1:fatal")):
            engine.run_all()
        assert engine.artifact("y") is None
        assert engine.artifact("z") == (1, None)  # consumer still ran
        assert engine.artifact("w") is None       # cascaded, never ran
        assert "downstream" not in calls
        assert set(engine.metrics.degraded) == {"flaky", "downstream"}
        statuses = {m.phase: m.status for m in engine.metrics.phases}
        assert statuses["flaky"] == "degraded"
        assert statuses["consumer"] == "ok"
        assert "degraded" in engine.metrics.to_dict()

    def test_degraded_run_never_poisons_the_cache(self, tmp_path):
        cache = PhaseCache(directory=tmp_path)
        engine = _toy_engine([], "degrade", cache=cache)
        with faults.injected(_plan("dataset.load:1:fatal")):
            engine.run_all()
        # Only the healthy, untainted phase made it to disk.
        assert len([n for n in os.listdir(tmp_path)
                    if n.endswith(".pkl")]) == 1
        calls = []
        healthy = _toy_engine(calls, "degrade",
                              cache=PhaseCache(directory=tmp_path))
        healthy.run_all()
        assert healthy.artifact("z") == (1, 2)  # recomputed on full data
        assert {"flaky", "consumer", "downstream"} <= set(calls)
        assert "alpha" not in calls  # the one legitimate disk hit
        assert not healthy.metrics.degraded

    def test_real_study_degrades_optional_vantage_points(self):
        config = StudyConfig.quick(seed=91)
        config.fail_policy = "degrade"
        engine = StudyEngine(config, cache=False)
        with faults.injected(_plan("dataset.load:1:fatal")):
            engine.run_all()
        degraded = set(engine.metrics.degraded)
        assert {"sonar", "shodan", "intel.greynoise", "intel.virustotal",
                "intel.censys", "intel.exonerator", "joins"} <= degraded
        # The core misconfiguration study still completed on our own scan.
        assert engine.artifact("misconfig").total > 0
        assert engine.artifact("virustotal") is None
        assert engine.artifact("infected") is None
        rendered = engine.metrics.render()
        assert "degraded" in rendered


# ---------------------------------------------------------------------------
# ProbeLossModel pickling
# ---------------------------------------------------------------------------

class TestProbeLossModelPickle:
    def test_round_trip_preserves_state_and_verdicts(self):
        model = ProbeLossModel(rate=0.5, seed=7, name="loss")
        for flow in range(8):
            model.lost(1, flow, 23, "syn")
        clone = pickle.loads(pickle.dumps(model))
        assert (clone.rate, clone.seed, clone.name) == (0.5, 7, "loss")
        assert clone._attempts == model._attempts
        # The lock was dropped in __getstate__ and rebuilt functional.
        assert clone._lock is not model._lock
        with clone._lock:
            pass
        assert [clone.lost(1, 3, 23, "syn") for _ in range(16)] == [
            model.lost(1, 3, 23, "syn") for _ in range(16)
        ]


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

class TestCliRobustnessFlags:
    def test_bad_fault_spec_exits_2(self, capsys):
        assert main(["scan", "--quick", "--inject-faults", "bogus"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_fault_site_exits_2(self, capsys):
        assert main(["scan", "--quick", "--inject-faults", "warp:0.5"]) == 2
        assert "warp" in capsys.readouterr().err

    def test_resume_requires_cache_dir(self, capsys):
        assert main(["scan", "--quick", "--resume"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_negative_retries_exit_2(self, capsys):
        assert main(["scan", "--quick", "--retries", "-1"]) == 2
        capsys.readouterr()

    def test_fatal_faults_exit_4_and_uninstall(self, capsys):
        code = main(["scan", "--quick", "--no-cache",
                     "--inject-faults", "task:1:fatal"], out=io.StringIO())
        assert code == 4
        assert "task failure" in capsys.readouterr().err
        assert faults.active() is None  # main() uninstalled its injector

    def test_fail_policy_degrade_completes_and_reports(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code = main(["scan", "--quick", "--no-cache",
                     "--fail-policy", "degrade",
                     "--inject-faults", "dataset.load:1:fatal",
                     "--metrics-json", str(metrics_path)],
                    out=io.StringIO())
        assert code == 0
        payload = json.loads(metrics_path.read_text())
        assert {"sonar", "shodan"} <= set(payload["degraded"])

    def test_interrupt_retry_and_resume_end_to_end(self, tmp_path):
        # Seed 11 puts the first fatal task verdict a few protocols into
        # the sweep, so the interrupted run leaves a genuinely partial
        # journal behind (the fault schedule is keyed by --seed).
        baseline = tmp_path / "baseline.jsonl"
        assert main(["scan", "--quick", "--seed", "11", "--no-cache",
                     "--export", str(baseline)], out=io.StringIO()) == 0

        # Transient faults ridden out by --retries: output unchanged.
        retried = tmp_path / "retried.jsonl"
        assert main(["scan", "--quick", "--seed", "11", "--no-cache",
                     "--retries", "8", "--inject-faults", "task:0.3",
                     "--export", str(retried)], out=io.StringIO()) == 0
        assert retried.read_text() == baseline.read_text()

        # Fatal faults interrupt the campaign (journal under cache dir)…
        cache_dir = tmp_path / "cache"
        assert main(["scan", "--quick", "--seed", "11",
                     "--cache-dir", str(cache_dir),
                     "--inject-faults", "task:0.35:fatal"],
                    out=io.StringIO()) == 4
        assert os.path.isdir(cache_dir / "journal")

        # …and --resume replays it to a byte-identical export.
        resumed = tmp_path / "resumed.jsonl"
        assert main(["scan", "--quick", "--seed", "11",
                     "--cache-dir", str(cache_dir),
                     "--resume", "--export", str(resumed)],
                    out=io.StringIO()) == 0
        assert resumed.read_text() == baseline.read_text()
