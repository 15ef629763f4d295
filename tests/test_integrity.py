"""Self-verifying artifacts: envelopes, quarantine, deadlines, validation.

These tests pin down the checksummed artifact envelope
(:mod:`repro.core.integrity`), the corruption-quarantine behaviour the
task journal and phase cache share, the ``store.corrupt`` and
``deadline`` fault sites, per-task wall-time supervision
(:class:`~repro.core.tasks.TaskDeadline`), the journal write-error
accounting surfaced through ``StudyMetrics``, and the cross-plane
structural validator behind ``repro validate`` (exit code 5).
"""

from __future__ import annotations

import json
import os
import pickle
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
    config_fingerprint,
)
from repro.core.faults import FaultPlan
from repro.core.integrity import (
    ENVELOPE_MAGIC,
    QuarantineRecord,
    quarantine_file,
    unwrap_envelope,
    wrap_envelope,
)
from repro.core.study import Study
from repro.core.tasks import (
    JOURNAL_SCHEMA_VERSION,
    TaskDeadline,
    TaskJournal,
    TaskPlan,
    TaskRef,
    run_tasks,
)
from repro.core.taxonomy import TrafficClass
from repro.core.validate import (
    Invariant,
    InvariantRegistry,
    default_registry,
    run_validation,
)
from repro.honeypots import build_deployment
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.net.asn import AsnRegistry
from repro.net.errors import (
    ConfigError,
    EnvelopeError,
    TaskDeadlineError,
    TaskFailure,
    TransientFaultError,
)
from repro.net.geo import GeoRegistry
from repro.telescope.flowtuple import encode_flowtuple
from repro.telescope.telescope import NetworkTelescope, TelescopeConfig


def _plan(spec, seed=11):
    return FaultPlan.parse(spec, seed=seed)


def _ref(day=0):
    return TaskRef("scan", "telnet", day)


def _call(state, thunk):
    """The ``run`` of the closure plans below: call the task's thunk."""
    return thunk()


def _closures(*thunks):
    """A plan whose tasks are the given closures."""
    return TaskPlan(run=_call, payloads=thunks)


def _wrap(payload=b"payload-bytes", **overrides):
    options = dict(schema=3, kind="phase", key="k1", fingerprint="fp")
    options.update(overrides)
    return wrap_envelope(payload, **options)


def _unwrap(blob, **overrides):
    options = dict(schema=3, kind="phase", key="k1", fingerprint="fp")
    options.update(overrides)
    return unwrap_envelope(blob, **options)


# ---------------------------------------------------------------------------
# The envelope format
# ---------------------------------------------------------------------------

class TestEnvelope:
    def test_round_trip(self):
        payload = pickle.dumps({"rows": list(range(50))})
        assert _unwrap(_wrap(payload)) == payload

    def test_empty_payload_round_trips(self):
        assert _unwrap(_wrap(b"")) == b""

    def test_key_and_fingerprint_default_to_empty(self):
        blob = wrap_envelope(b"x", schema=1, kind="task")
        assert unwrap_envelope(blob, schema=1, kind="task") == b"x"

    @pytest.mark.parametrize("mutate, reason", [
        (lambda blob: blob[:10], "truncated"),
        (lambda blob: b"", "truncated"),
        (lambda blob: b"Z" + blob[1:], "bad-magic"),
        (lambda blob: ENVELOPE_MAGIC + blob[len(ENVELOPE_MAGIC):
                                            len(ENVELOPE_MAGIC) + 4]
         + b"}{}{" + blob[len(ENVELOPE_MAGIC) + 8:], "malformed-header"),
        (lambda blob: blob + b"trailing-garbage", "length-mismatch"),
        (lambda blob: blob[:-1] + bytes([blob[-1] ^ 0x01]),
         "checksum-mismatch"),
    ])
    def test_damage_reasons(self, mutate, reason):
        with pytest.raises(EnvelopeError) as info:
            _unwrap(mutate(_wrap()))
        assert info.value.reason == reason

    @pytest.mark.parametrize("kwargs, reason", [
        (dict(schema=4), "stale-schema"),
        (dict(kind="task"), "kind-mismatch"),
        (dict(key="other"), "key-mismatch"),
        (dict(fingerprint="other"), "stale-fingerprint"),
    ])
    def test_expectation_mismatches(self, kwargs, reason):
        with pytest.raises(EnvelopeError) as info:
            _unwrap(_wrap(), **kwargs)
        assert info.value.reason == reason

    def test_every_single_bit_flip_is_detected(self):
        blob = _wrap(pickle.dumps({"key": "value", "n": 7}))
        for position in range(len(blob)):
            for bit in range(8):
                damaged = bytearray(blob)
                damaged[position] ^= 1 << bit
                with pytest.raises(EnvelopeError):
                    _unwrap(bytes(damaged))

    def test_error_reason_defaults_to_malformed(self):
        assert EnvelopeError("boom").reason == "malformed"


# ---------------------------------------------------------------------------
# Quarantine mechanics
# ---------------------------------------------------------------------------

class TestQuarantineFile:
    def _damaged(self, tmp_path, name="entry.pkl"):
        path = tmp_path / name
        path.write_bytes(b"damaged bytes")
        return str(path)

    def test_moves_file_aside_with_reason_sidecar(self, tmp_path):
        path = self._damaged(tmp_path)
        record = quarantine_file(
            path, key="scan.telnet.0", reason="checksum-mismatch",
            stage="journal.load",
        )
        assert isinstance(record, QuarantineRecord)
        assert not os.path.exists(path)
        assert os.path.exists(record.quarantined_path)
        assert record.quarantined_path.endswith(".quarantined")
        assert os.path.dirname(record.quarantined_path) == str(
            tmp_path / "quarantine"
        )
        with open(record.quarantined_path + ".reason.json") as handle:
            sidecar = json.load(handle)
        assert sidecar["key"] == "scan.telnet.0"
        assert sidecar["reason"] == "checksum-mismatch"
        assert sidecar["stage"] == "journal.load"

    def test_colliding_names_get_serial_suffixes(self, tmp_path):
        first = quarantine_file(
            self._damaged(tmp_path), key="k", reason="r", stage="s"
        )
        second = quarantine_file(
            self._damaged(tmp_path), key="k", reason="r", stage="s"
        )
        assert first.quarantined_path != second.quarantined_path
        assert os.path.exists(first.quarantined_path)
        assert os.path.exists(second.quarantined_path)

    def test_missing_source_returns_none(self, tmp_path):
        assert quarantine_file(
            str(tmp_path / "absent.pkl"), key="k", reason="r", stage="s"
        ) is None

    def test_record_serializes(self, tmp_path):
        record = quarantine_file(
            self._damaged(tmp_path), key="k", reason="bad-magic", stage="s"
        )
        as_dict = record.to_dict()
        assert as_dict["reason"] == "bad-magic"
        assert set(as_dict) == {
            "key", "reason", "stage", "source_path", "quarantined_path",
        }

    def test_default_namespace_keeps_flat_layout(self, tmp_path):
        record = quarantine_file(
            self._damaged(tmp_path), key="k", reason="r", stage="s",
        )
        assert os.path.dirname(record.quarantined_path) == str(
            tmp_path / "quarantine"
        )


class TestJournalQuarantine:
    def _plant(self, journal, blob, day=0):
        os.makedirs(journal.directory, exist_ok=True)
        path = os.path.join(journal.directory, _ref(day).filename())
        with open(path, "wb") as handle:
            handle.write(blob)
        return path

    def test_garbage_entry_is_quarantined_not_deleted(self, tmp_path):
        journal = TaskJournal(tmp_path, resume=True)
        path = self._plant(journal, b"not an envelope at all")
        assert journal.load(_ref()) == (False, None)
        assert not os.path.exists(path)
        assert len(journal.quarantined) == 1
        record = journal.quarantined[0]
        assert record.reason == "bad-magic"
        assert record.stage == "journal.load"
        assert os.path.exists(record.quarantined_path)

    def test_quarantined_entry_is_never_reread(self, tmp_path):
        journal = TaskJournal(tmp_path, resume=True)
        self._plant(journal, b"garbage")
        journal.load(_ref())
        assert journal.load(_ref()) == (False, None)  # plain miss now
        assert len(journal.quarantined) == 1  # no double quarantine

    def test_colliding_key_is_quarantined_as_mismatch(self, tmp_path):
        journal = TaskJournal(tmp_path, resume=True)
        journal.store(_ref(0), 7)
        os.replace(
            os.path.join(journal.directory, _ref(0).filename()),
            os.path.join(journal.directory, _ref(1).filename()),
        )
        assert journal.load(_ref(1)) == (False, None)
        assert [r.reason for r in journal.quarantined] == ["key-mismatch"]

    def test_unpicklable_payload_is_quarantined(self, tmp_path):
        journal = TaskJournal(tmp_path, resume=True, fingerprint="fp")
        blob = wrap_envelope(
            b"\x80\x04 not a pickle", schema=JOURNAL_SCHEMA_VERSION,
            kind="journal", key=_ref().key(), fingerprint="fp",
        )
        self._plant(journal, blob)
        assert journal.load(_ref()) == (False, None)
        assert [r.reason for r in journal.quarantined] == ["unpicklable"]

    def test_missing_entry_is_a_plain_miss_without_quarantine(self, tmp_path):
        journal = TaskJournal(tmp_path, resume=True)
        assert journal.load(_ref()) == (False, None)
        assert journal.quarantined == []

    def test_run_tasks_self_heals_a_damaged_journal(self, tmp_path):
        refs = [TaskRef("p", "u", index) for index in range(4)]
        journal = TaskJournal(tmp_path)
        first = run_tasks(
            TaskPlan(run=_call, payloads=[lambda i=i: i * 10
                                          for i in range(4)]),
            1, refs=refs, journal=journal,
        )
        damaged = os.path.join(journal.directory, refs[2].filename())
        with open(damaged, "r+b") as handle:
            handle.write(b"\x00" * 8)  # stomp the magic

        resumed = TaskJournal(tmp_path, resume=True)
        calls = []
        second = run_tasks(
            TaskPlan(run=_call, payloads=[
                lambda i=i: calls.append(i) or i * 10 for i in range(4)
            ]),
            1, refs=refs, journal=resumed,
        )
        assert second == first == [0, 10, 20, 30]
        assert calls == [2]  # only the damaged entry recomputed
        assert [r.reason for r in resumed.quarantined] == ["bad-magic"]
        assert resumed.hits == 3 and resumed.stores == 1

        healed = TaskJournal(tmp_path, resume=True)
        assert healed.load(refs[2]) == (True, 20)  # re-stored on disk


# ---------------------------------------------------------------------------
# The store.corrupt fault site
# ---------------------------------------------------------------------------

class TestStoreCorruptSite:
    def test_corruption_is_deterministic_and_single_bit(self):
        injector = faults.FaultInjector(_plan("store.corrupt:1", seed=3))
        data = bytes(range(64))
        once = injector.corrupt_bytes(data, "journal.load", "scan.telnet.0")
        again = injector.corrupt_bytes(data, "journal.load", "scan.telnet.0")
        assert once == again != data
        delta = [i for i in range(len(data)) if once[i] != data[i]]
        assert len(delta) == 1
        assert bin(once[delta[0]] ^ data[delta[0]]).count("1") == 1

    def test_zero_rate_and_empty_blob_pass_through(self):
        injector = faults.FaultInjector(_plan("store.corrupt:0"))
        assert injector.corrupt_bytes(b"abc", "k") == b"abc"
        hot = faults.FaultInjector(_plan("store.corrupt:1"))
        assert hot.corrupt_bytes(b"", "k") == b""

    def test_maybe_corrupt_is_identity_without_injector(self):
        assert faults.maybe_corrupt(b"abc", "k") == b"abc"

    def test_journal_load_corruption_quarantines_and_misses(self, tmp_path):
        journal = TaskJournal(tmp_path, resume=True)
        journal.store(_ref(), {"rows": [1, 2]})
        with faults.injected(_plan("store.corrupt:1")):
            assert journal.load(_ref()) == (False, None)
        assert len(journal.quarantined) == 1

    def test_phase_cache_corruption_quarantines_and_misses(self, tmp_path):
        key = PhaseCache.key_for("zmap", "fp")
        PhaseCache(directory=tmp_path).put(key, {"zmap_db": 41}, "fp")
        cache = PhaseCache(directory=tmp_path)
        with faults.injected(_plan("store.corrupt:1")):
            assert cache.get(key, "fp") == (None, False)
        assert cache.stats.corrupt == 1
        assert [r.stage for r in cache.quarantined] == ["phase.load"]
        assert os.path.isdir(tmp_path / "quarantine")

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_resume_self_heals_byte_identically(self, tmp_path, workers):
        refs = [TaskRef("p", "u", index) for index in range(12)]
        plan = TaskPlan(run=_call, payloads=[
            lambda i=i: pickle.dumps(("row", i)) for i in range(12)
        ])
        oracle = run_tasks(plan, 1, refs=refs)

        with faults.injected(_plan("store.corrupt:0.4", seed=5)):
            run_tasks(plan, workers, refs=refs, executor="serial",
                      journal=TaskJournal(tmp_path))  # corrupt stores
            resumed = TaskJournal(tmp_path, resume=True)
            healed = run_tasks(plan, workers, refs=refs, executor="serial",
                               journal=resumed)
        assert healed == oracle
        assert len(resumed.quarantined) > 0  # the drill actually corrupted


# ---------------------------------------------------------------------------
# Journal write-error accounting (the old silent ``pass``)
# ---------------------------------------------------------------------------

class TestWriteErrorAccounting:
    def test_skipped_writes_are_counted_not_raised(self, tmp_path):
        journal = TaskJournal(tmp_path)
        with faults.injected(_plan("cache.io:1:fatal")):
            journal.store(_ref(0), 1)
            journal.store(_ref(1), 2)
        assert journal.write_errors == 2
        assert journal.stores == 0
        journal.store(_ref(2), 3)
        assert journal.write_errors == 2  # healthy writes don't count

    def test_metrics_json_surfaces_write_errors(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "attacks", "--quick", "--seed", "19",
            "--cache-dir", str(tmp_path / "cache"),
            "--inject-faults", "cache.io:1:fatal",
            "--metrics-json", str(metrics_path),
        ], out=open(os.devnull, "w"))
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["journal_write_errors"] > 0
        planes = {j["plane"]: j for j in metrics["journals"]}
        assert planes["attacks"]["write_errors"] > 0
        assert planes["attacks"]["stores"] == 0


# ---------------------------------------------------------------------------
# Deadline supervision
# ---------------------------------------------------------------------------

class TestDeadlineParsing:
    def test_soft_only(self):
        deadline = TaskDeadline.parse("0.5")
        assert deadline.soft == 0.5 and deadline.hard is None

    def test_soft_and_hard(self):
        deadline = TaskDeadline.parse("0.5:2")
        assert (deadline.soft, deadline.hard) == (0.5, 2.0)

    @pytest.mark.parametrize("spec", [
        "", "abc", "1:2:3", "-1", "0", "2:1", "1:-3", ":", "1:",
    ])
    def test_bad_specs_raise_config_error(self, spec):
        with pytest.raises(ConfigError):
            TaskDeadline.parse(spec)

    def test_config_validate_rejects_bad_deadline(self):
        config = StudyConfig.quick()
        config.task_deadline = "backwards:spec"
        with pytest.raises(ConfigError):
            config.validate()

    def test_config_accepts_good_deadline(self):
        config = StudyConfig.quick()
        config.task_deadline = "0.5:2"
        config.validate()

    def test_deadline_is_not_an_experiment_parameter(self):
        plain = StudyConfig.quick()
        armed = StudyConfig.quick()
        armed.task_deadline = "0.5"
        assert config_fingerprint(plain) == config_fingerprint(armed)


class TestDeadlineSupervision:
    def test_soft_overrun_records_a_stall(self):
        deadline = TaskDeadline(soft=0.001)
        result = run_tasks(_closures(lambda: time.sleep(0.01) or 41), 1,
                           refs=[_ref()], deadline=deadline)
        assert result == [41]
        assert len(deadline.stalls) == 1
        stall = deadline.stalls[0]
        assert (stall.plane, stall.unit, stall.day) == ("scan", "telnet", 0)
        assert stall.seconds > stall.limit == 0.001
        assert set(stall.to_dict()) == {
            "plane", "unit", "day", "seconds", "limit", "attempt",
        }

    def test_fast_task_records_nothing(self):
        deadline = TaskDeadline(soft=5.0, hard=10.0)
        assert run_tasks(_closures(lambda: 1), 1, refs=[_ref()],
                         deadline=deadline) == [1]
        assert deadline.stalls == []

    def test_hard_overrun_is_a_transient_task_failure(self):
        deadline = TaskDeadline(soft=0.001, hard=0.002)
        with pytest.raises(TaskFailure) as info:
            run_tasks(_closures(lambda: time.sleep(0.01)), 1,
                      refs=[_ref()], deadline=deadline)
        assert isinstance(info.value.__cause__, TaskDeadlineError)
        assert isinstance(info.value.__cause__, TransientFaultError)
        assert "hard deadline" in str(info.value)

    def test_hard_overrun_clears_on_retry(self):
        deadline = TaskDeadline(hard=0.05)
        calls = []

        def sometimes_slow():
            calls.append(len(calls))
            if len(calls) == 1:
                time.sleep(0.1)
            return 7

        assert run_tasks(_closures(sometimes_slow), 1, refs=[_ref()],
                         retries=2, deadline=deadline) == [7]
        assert calls == [0, 1]

    def test_deadline_fault_site_injects_the_delay(self):
        deadline = TaskDeadline(hard=0.01)
        with faults.injected(_plan("deadline:1:0.05")):
            with pytest.raises(TaskFailure):
                run_tasks(_closures(lambda: 1), 1, refs=[_ref()],
                          deadline=deadline)

    def test_deadline_site_defaults_its_delay(self):
        rule = _plan("deadline:0.5").rules["deadline"]
        assert rule.delay == faults.DEFAULT_DEADLINE_DELAY > 0


class TestDeadlineRetryByteIdentity:
    """Satellite: the attack and telescope planes replay byte-identically
    when a hard deadline kills an attempt mid-month (tasks are pure)."""

    def _run_month(self, seed, deadline=None, retries=0):
        population = PopulationBuilder(
            PopulationConfig(seed=seed, scale=8192, honeypot_scale=256)
        ).build()
        deployment = build_deployment()
        deployment.attach(population.internet)
        scheduler = AttackScheduler(
            population.internet, deployment, population,
            AttackScheduleConfig(seed=seed, attack_scale=64, days=6,
                                 retries=retries),
        )
        try:
            result = scheduler.run(deadline=deadline)
        finally:
            deployment.detach(population.internet)
        return result

    def _telescope(self, seed, retries=0):
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
            TelescopeConfig(seed=seed, days=4, telnet_source_scale=65_536,
                            source_scale=512, packet_scale=131_072,
                            retries=retries),
        )

    def test_attack_plane(self):
        baseline = self._run_month(23).log.to_jsonl()
        deadline = TaskDeadline(hard=0.05)
        with faults.injected(_plan("deadline:0.25:0.15", seed=29)):
            disturbed = self._run_month(23, deadline=deadline, retries=4)
        assert disturbed.log.to_jsonl() == baseline

    def test_telescope_plane(self):
        baseline = self._telescope(23).capture_month()
        reference = [encode_flowtuple(r) for r in baseline.writer.iter_rows()]
        deadline = TaskDeadline(hard=0.05)
        telescope = self._telescope(23, retries=4)
        with faults.injected(_plan("deadline:0.25:0.15", seed=29)):
            disturbed = telescope.capture_month(deadline=deadline)
        assert [encode_flowtuple(r)
                for r in disturbed.writer.iter_rows()] == reference


# ---------------------------------------------------------------------------
# Degrade policy: a failed optional phase cascades to its consumers
# ---------------------------------------------------------------------------

def _toy_graph(calls):
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
    graph.register(PhaseSpec(
        name="consumer", provides=("z",), requires=("x", "y"),
        run=lambda e: calls.append("consumer") or {
            "z": (e.artifact("x"), e.artifact("y"))
        },
    ))
    graph.register(PhaseSpec(
        name="downstream", provides=("w",), requires=("y",), optional=True,
        run=lambda e: calls.append("downstream") or {
            "w": e.artifact("y") * 2
        },
    ))
    return graph


class TestDegradeCascade:
    def test_degrade_records_and_cascades(self):
        calls = []
        config = StudyConfig.quick(seed=5)
        config.fail_policy = "degrade"
        engine = StudyEngine(config, graph=_toy_graph(calls), cache=False)
        with faults.injected(_plan("dataset.load:1:fatal")):
            engine.run_all()
        assert engine.artifact("y") is None
        assert engine.artifact("z") == (1, None)
        assert engine.artifact("w") is None
        assert "downstream" not in calls
        assert set(engine.metrics.degraded) == {"flaky", "downstream"}


# ---------------------------------------------------------------------------
# Fault-spec diagnostics (the parser names the offending token)
# ---------------------------------------------------------------------------

class TestFaultSpecDiagnostics:
    def test_unknown_site_names_token_and_valid_sites(self):
        with pytest.raises(ConfigError) as info:
            FaultPlan.parse("warp:0.5")
        message = str(info.value)
        assert "'warp'" in message
        for site in faults.FAULT_SITES:
            assert site in message

    def test_bad_rate_names_the_token_and_entry(self):
        with pytest.raises(ConfigError) as info:
            FaultPlan.parse("task:lots")
        assert "'lots'" in str(info.value)
        assert "'task:lots'" in str(info.value)

    def test_ambiguous_third_token_names_both_interpretations(self):
        with pytest.raises(ConfigError) as info:
            FaultPlan.parse("task:0.5:often")
        message = str(info.value)
        assert "'often'" in message
        assert "transient" in message and "fatal" in message
        assert "delay" in message

    def test_four_token_form_is_site_rate_kind_delay(self):
        rule = FaultPlan.parse("deadline:0.5:fatal:0.25").rules["deadline"]
        assert (rule.kind, rule.delay) == ("fatal", 0.25)
        with pytest.raises(ConfigError) as info:
            FaultPlan.parse("task:0.5:fatal:soon")
        assert "'soon'" in str(info.value)

    def test_cli_maps_bad_spec_to_exit_2_with_the_token(self, capsys):
        code = main(["run", "--quick", "--inject-faults", "warp:0.5"])
        assert code == 2
        stderr = capsys.readouterr().err
        assert "'warp'" in stderr
        assert "store.corrupt" in stderr  # the valid-site list is printed


# ---------------------------------------------------------------------------
# The cross-plane validator and ``repro validate``
# ---------------------------------------------------------------------------

class TestValidator:
    def test_healthy_quick_study_has_no_violations(self):
        study = Study(StudyConfig.quick(seed=31), cache=False)
        assert study.validate() == []

    def test_registry_rejects_duplicate_names(self):
        registry = InvariantRegistry()
        invariant = Invariant(name="x", plane="scan", requires=(),
                              check=lambda engine: [])
        registry.register(invariant)
        with pytest.raises(ValueError):
            registry.register(invariant)

    def test_run_validation_materializes_what_it_needs(self):
        engine = StudyEngine(StudyConfig.quick(seed=31), cache=False)
        registry = InvariantRegistry()
        registry.register(Invariant(
            name="scan.only", plane="scan", requires=("zmap_db",),
            check=lambda e: [],
        ))
        assert run_validation(engine, registry) == []
        assert engine.materialized("zmap_db")
        assert not engine.materialized("schedule")  # never asked for

    def test_mutilated_scan_database_is_caught(self):
        engine = StudyEngine(StudyConfig.quick(seed=31), cache=False)
        engine.ensure("zmap_db")
        database = engine.artifact("zmap_db")
        addresses = database.column("address")
        addresses[0], addresses[-1] = addresses[-1], addresses[0]
        violations = run_validation(engine)
        assert "scan.canonical-order" in {
            v.invariant for v in violations
        }
        assert any("canonical" in v.message for v in violations)

    def test_violations_serialize(self):
        registry = InvariantRegistry()
        registry.register(Invariant(
            name="always.bad", plane="scan", requires=(),
            check=lambda e: ["it is bad"],
        ))
        engine = StudyEngine(StudyConfig.quick(seed=31), cache=False)
        [violation] = run_validation(engine, registry)
        assert violation.to_dict() == {
            "invariant": "always.bad", "message": "it is bad",
        }

    def test_default_registry_covers_every_plane(self):
        planes = {inv.plane for inv in default_registry().invariants()}
        assert planes == {"scan", "attacks", "telescope", "analysis",
                          "stream"}


class TestCliValidate:
    def _mutilate_cached_zmap(self, cache_dir, seed=7):
        """Re-wrap the cached ZMap database with its rows out of order —
        a valid envelope around structurally broken content."""
        config = StudyConfig.quick(seed=seed)
        fingerprint = config_fingerprint(config)
        key = PhaseCache.key_for("zmap", fingerprint)
        path = os.path.join(cache_dir, f"{key}.pkl")
        with open(path, "rb") as handle:
            payload = unwrap_envelope(
                handle.read(), schema=ENGINE_SCHEMA_VERSION,
                kind="phase", key=key, fingerprint=fingerprint,
            )
        artifacts = pickle.loads(payload)
        database = artifacts["zmap_db"]
        addresses = database.column("address")
        addresses[0], addresses[-1] = addresses[-1], addresses[0]
        blob = wrap_envelope(
            pickle.dumps(artifacts, pickle.HIGHEST_PROTOCOL),
            schema=ENGINE_SCHEMA_VERSION, kind="phase",
            key=key, fingerprint=fingerprint,
        )
        with open(path, "wb") as handle:
            handle.write(blob)

    def test_healthy_artifacts_exit_0(self, tmp_path, capsys):
        import io
        out = io.StringIO()
        code = main(["validate", "--quick",
                     "--cache-dir", str(tmp_path)], out=out)
        assert code == 0
        assert "all 7 invariants hold" in out.getvalue()

    def test_mutilated_artifacts_exit_5(self, tmp_path):
        import io
        assert main(["validate", "--quick",
                     "--cache-dir", str(tmp_path)],
                    out=io.StringIO()) == 0
        self._mutilate_cached_zmap(str(tmp_path))
        out = io.StringIO()
        code = main(["validate", "--quick",
                     "--cache-dir", str(tmp_path)], out=out)
        assert code == 5
        text = out.getvalue()
        assert "scan.canonical-order             FAIL" in text
        assert "invariant violation" in text

    def test_corrupted_cache_heals_and_validates_clean(self, tmp_path):
        """Bit-flipped cache entries are quarantined, recomputed, and the
        recomputed artifacts pass validation — exit 0, not 5."""
        import io
        assert main(["validate", "--quick",
                     "--cache-dir", str(tmp_path)],
                    out=io.StringIO()) == 0
        out = io.StringIO()
        code = main(["validate", "--quick", "--cache-dir", str(tmp_path),
                     "--inject-faults", "store.corrupt:1"], out=out)
        assert code == 0
        assert os.path.isdir(tmp_path / "quarantine")
