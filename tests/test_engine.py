"""Tests for the phase-DAG execution engine, its cache and metrics."""

import json
import warnings

import pytest

from repro import ConfigError, PhaseOrderError, Study, StudyConfig
from repro.attacks.schedule import AttackScheduleConfig
from repro.core.engine import (
    EngineError,
    PhaseCache,
    PhaseGraph,
    PhaseSpec,
    StudyEngine,
    build_study_graph,
    config_fingerprint,
)
from repro.core.report import render_table4
from repro.internet.population import PopulationConfig
from repro.net.prng import DEFAULT_SEED, RandomStream
from repro.scanner.zmap import ScanConfig
from repro.telescope.telescope import TelescopeConfig


def quick(seed):
    return StudyConfig.quick(seed=seed)


class TestGraphResolution:
    def test_full_pipeline_waves_are_topological(self):
        graph = build_study_graph(StudyConfig.quick())
        waves = graph.resolve(graph.artifacts())
        order = [spec.name for wave in waves for spec in wave]
        for earlier, later in (
            ("world", "zmap"), ("zmap", "merge"), ("sonar", "merge"),
            ("shodan", "merge"), ("merge", "fingerprint"),
            ("fingerprint", "classify"), ("fingerprint", "attacks"),
            ("attacks", "telescope"), ("attacks", "intel.virustotal"),
            ("telescope", "joins"), ("intel.censys", "joins"),
        ):
            assert order.index(earlier) < order.index(later)

    def test_scan_snapshots_share_a_wave(self):
        graph = build_study_graph(StudyConfig.quick())
        waves = graph.resolve(["merged_db"])
        by_wave = {s.name: i for i, wave in enumerate(waves) for s in wave}
        assert by_wave["zmap"] == by_wave["sonar"] == by_wave["shodan"]

    def test_intel_fans_out_with_telescope(self):
        graph = build_study_graph(StudyConfig.quick())
        waves = graph.resolve(graph.artifacts())
        by_wave = {s.name: i for i, wave in enumerate(waves) for s in wave}
        assert (by_wave["telescope"] == by_wave["intel.greynoise"]
                == by_wave["intel.virustotal"] == by_wave["intel.censys"]
                == by_wave["intel.exonerator"])

    def test_partial_targets_exclude_unneeded_phases(self):
        graph = build_study_graph(StudyConfig.quick())
        names = {s.name for wave in graph.resolve(["schedule"])
                 for s in wave}
        assert names == {"world", "attacks"}

    def test_done_phases_are_skipped(self):
        graph = build_study_graph(StudyConfig.quick())
        waves = graph.resolve(["merged_db"], done={"world", "zmap"})
        names = {s.name for wave in waves for s in wave}
        assert names == {"sonar", "shodan", "merge"}

    def test_unknown_artifact_is_typed_error(self):
        graph = build_study_graph(StudyConfig.quick())
        with pytest.raises(PhaseOrderError) as excinfo:
            graph.resolve(["frobnicator"])
        assert "frobnicator" in str(excinfo.value)
        assert excinfo.value.missing == ("frobnicator",)

    def test_cycle_detection(self):
        graph = PhaseGraph()
        graph.register(PhaseSpec(name="a", provides=("x",),
                                 requires=("y",), run=lambda e: {}))
        graph.register(PhaseSpec(name="b", provides=("y",),
                                 requires=("x",), run=lambda e: {}))
        with pytest.raises(EngineError, match="cycle"):
            graph.resolve(["x"])

    def test_duplicate_provider_rejected(self):
        graph = PhaseGraph()
        graph.register(PhaseSpec(name="a", provides=("x",), run=lambda e: {}))
        with pytest.raises(EngineError, match="provided by both"):
            graph.register(
                PhaseSpec(name="b", provides=("x",), run=lambda e: {})
            )


class TestAutoResolution:
    def test_any_phase_method_runs_prerequisites(self):
        study = Study(quick(31), cache=False)
        report = study.run_classification()
        assert report.total > 0
        assert study.metrics.phase_order() == [
            "world", "zmap", "sonar", "shodan", "merge", "fingerprint",
            "classify",
        ]

    def test_join_from_cold_start(self):
        study = Study(quick(31), cache=False)
        infected = study.run_joins()
        assert infected is study.results.infected
        assert set(study.results.phase_seconds) == {
            "world", "scan", "fingerprint", "classify", "attacks",
            "telescope", "intel", "joins",
        }

    def test_strict_mode_raises_typed_error(self):
        study = Study(quick(31), cache=False, auto_resolve=False)
        with pytest.raises(PhaseOrderError, match="build_world first"):
            study.run_scans()
        with pytest.raises(PhaseOrderError, match="run_attacks"):
            study.run_telescope()
        study.build_world()
        study.run_scans()  # satisfied now
        assert study.results.merged_db is not None

    def test_strict_error_is_not_an_assert(self):
        """The guard must survive ``python -O`` — i.e. be a real raise."""
        study = Study(quick(31), cache=False, auto_resolve=False)
        with pytest.raises(RuntimeError):  # PhaseOrderError subclasses it
            study.run_fingerprinting()

    def test_results_split_requires_schedule(self):
        study = Study(quick(31), cache=False)
        with pytest.raises(PhaseOrderError, match="run_attacks first"):
            study.results.honeypot_source_split("Cowrie")


class TestCache:
    def test_second_run_hits_for_every_phase(self):
        cache = PhaseCache()
        first = Study(quick(33), cache=cache)
        first.run()
        assert first.metrics.cache_hits == 0
        second = Study(quick(33), cache=cache)
        second.run()
        assert second.metrics.cache_misses == 0
        assert second.metrics.cache_hits == len(first.metrics.phases)
        # Shared cache returns the same artifact objects.
        assert second.results.merged_db is first.results.merged_db

    def test_partial_then_full_reuses_world_and_scan(self):
        cache = PhaseCache()
        partial = Study(quick(34), cache=cache)
        partial.run_classification()
        full = Study(quick(34), cache=cache)
        full.run()
        hits = {m.phase for m in full.metrics.phases if m.cache_hit}
        assert {"world", "zmap", "sonar", "shodan", "merge",
                "fingerprint", "classify"} <= hits
        misses = {m.phase for m in full.metrics.phases if not m.cache_hit}
        assert "attacks" in misses and "joins" in misses

    def test_attacks_on_cached_world_leaves_it_pristine(self):
        """The lab must not leak into a cached world's later scans."""
        cache = PhaseCache()
        attacker = Study(quick(35), cache=cache)
        attacker.run_attacks()
        lab = attacker.results.deployment
        internet = attacker.results.population.internet
        assert all(internet.host_at(h.address) is None
                   for h in lab.honeypots)
        scanner = Study(quick(35), cache=cache)
        scanner.run_fingerprinting()
        truth = {h.address
                 for h in scanner.results.population.wild_honeypots}
        assert scanner.results.fingerprints.addresses() == truth

    def test_config_change_invalidates(self):
        cache = PhaseCache()
        Study(quick(36), cache=cache).run_scans()
        other = Study(quick(37), cache=cache)
        other.run_scans()
        assert other.metrics.cache_hits == 0
        tweaked = StudyConfig.quick(seed=36)
        tweaked.use_eu_blocklist = True
        third = Study(tweaked, cache=cache)
        third.run_scans()
        assert third.metrics.cache_hits == 0

    def test_fingerprint_stability_and_sensitivity(self):
        assert (config_fingerprint(quick(5))
                == config_fingerprint(quick(5)))
        assert (config_fingerprint(quick(5))
                != config_fingerprint(quick(6)))
        flagged = StudyConfig.quick(seed=5)
        flagged.capture_pcap = True
        assert (config_fingerprint(flagged)
                != config_fingerprint(quick(5)))

    def test_lru_eviction(self):
        cache = PhaseCache(max_entries=2)
        cache.put("a", {"x": 1})
        cache.put("b", {"x": 2})
        cache.put("c", {"x": 3})
        assert cache.get("a") == (None, False)
        assert cache.get("c")[0] == {"x": 3}
        assert cache.stats.evictions == 1

    def test_disk_layer_survives_process_restart(self, tmp_path):
        first = Study(quick(38), cache=PhaseCache(directory=tmp_path))
        first.run_scans()
        # A fresh cache object with an empty memory layer: only the disk
        # layer can serve it, as after a process restart.
        second = Study(quick(38), cache=PhaseCache(directory=tmp_path))
        second.run_scans()
        assert second.metrics.cache_misses == 0
        assert any(m.disk_hit for m in second.metrics.phases)
        assert (render_table4(first.results)
                == render_table4(second.results))

    def test_disk_layer_is_best_effort(self, tmp_path):
        cache = PhaseCache(directory=tmp_path / "sub")
        cache.put("k", {"bad": lambda: None})  # unpicklable: no crash
        assert cache.get("k")[0] is not None  # memory layer still serves


class TestMetrics:
    def test_metrics_shapes(self):
        study = Study(quick(42), cache=False)
        study.run()
        metrics = study.metrics
        assert len(metrics.phases) == 14
        payload = json.loads(metrics.to_json())
        assert payload["cache_misses"] == 14
        assert set(payload["group_seconds"]) == {
            "world", "scan", "fingerprint", "classify", "attacks",
            "telescope", "intel", "joins",
        }
        zmap = next(p for p in payload["phases"] if p["phase"] == "zmap")
        assert zmap["items"] > 0 and zmap["items_per_second"] > 0

    def test_render_mentions_every_phase(self):
        study = Study(quick(42), cache=False)
        study.run_scans()
        text = study.metrics.render()
        for name in ("world", "zmap", "sonar", "shodan", "merge"):
            assert name in text

    def test_phase_seconds_facade_matches_groups(self):
        study = Study(quick(42), cache=False)
        study.run()
        assert (study.results.phase_seconds
                == study.metrics.group_seconds())


class TestSeedSentinel:
    def test_master_seed_propagates_into_none_subseeds(self):
        config = StudyConfig(seed=13)
        assert config.population.seed == 13
        assert config.scan.seed == 13
        assert config.attacks.seed == 13
        assert config.telescope.seed == 13

    def test_explicit_subseed_wins_even_when_legacy_default(self):
        config = StudyConfig(seed=13, scan=ScanConfig(seed=7))
        assert config.scan.seed == 7  # no longer silently overwritten
        assert config.population.seed == 13

    def test_legacy_default_collision_warns(self):
        """An explicit sub-seed equal to the default is kept, silently."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = StudyConfig(seed=13, telescope=TelescopeConfig(seed=7))
        assert config.telescope.seed == 7
        assert config.population.seed == 13

    def test_explicit_nondefault_subseed_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = StudyConfig(seed=13, scan=ScanConfig(seed=5))
        assert config.scan.seed == 5

    def test_standalone_subconfig_resolves_to_default(self):
        assert ScanConfig().seed is None
        stream = RandomStream(ScanConfig().seed, "probe")
        assert stream.seed == DEFAULT_SEED
        assert (stream.random()
                == RandomStream(DEFAULT_SEED, "probe").random())

    def test_quick_config_inherits_everywhere(self):
        config = StudyConfig.quick(seed=99)
        assert {config.population.seed, config.scan.seed,
                config.attacks.seed, config.telescope.seed} == {99}


class TestConfigValidation:
    """Every config rejects a bad seed or telescope input at construction,
    with the same typed :class:`ConfigError`."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: StudyConfig(seed=-1), id="StudyConfig.seed"),
        pytest.param(lambda: ScanConfig(seed=-1), id="ScanConfig.seed"),
        pytest.param(lambda: AttackScheduleConfig(seed=-1),
                     id="AttackScheduleConfig.seed"),
        pytest.param(lambda: PopulationConfig(seed=-1),
                     id="PopulationConfig.seed"),
        pytest.param(lambda: TelescopeConfig(seed=-1),
                     id="TelescopeConfig.seed"),
        pytest.param(lambda: TelescopeConfig(dark_prefix="bogus"),
                     id="TelescopeConfig.dark_prefix"),
        pytest.param(lambda: TelescopeConfig(days=0),
                     id="TelescopeConfig.days"),
        pytest.param(lambda: TelescopeConfig(spoofed_fraction=1.5),
                     id="TelescopeConfig.spoofed_fraction"),
        pytest.param(lambda: TelescopeConfig(masscan_fraction=-0.1),
                     id="TelescopeConfig.masscan_fraction"),
        pytest.param(lambda: TelescopeConfig(rsdos_attacks_per_day=-1),
                     id="TelescopeConfig.rsdos_attacks_per_day"),
    ])
    def test_invalid_input_raises_config_error(self, build):
        with pytest.raises(ConfigError):
            build()


class TestEngineDirectUse:
    def test_ensure_and_artifact_access(self):
        engine = StudyEngine(quick(43), cache=False)
        engine.ensure("misconfig")
        assert engine.artifact("misconfig").total > 0
        assert engine.materialized("zmap_db")
        assert not engine.materialized("schedule")

    def test_unmaterialized_artifact_is_typed_error(self):
        engine = StudyEngine(quick(43), cache=False)
        with pytest.raises(PhaseOrderError, match="attacks"):
            engine.artifact("schedule")

    def test_ensure_is_idempotent(self):
        engine = StudyEngine(quick(43), cache=False)
        engine.ensure("zmap_db")
        ran = len(engine.metrics.phases)
        engine.ensure("zmap_db")
        assert len(engine.metrics.phases) == ran
