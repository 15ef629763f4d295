"""Self-tests of the benchmark: ``python3 -m pytest bench -q`` (well under 60 s).

They check the definition against the limits the benchmark promises, the
``compare`` verdicts on synthetic runs, the tracer's wrapping, and one
quick-scale unit of every workload (the paper-config ones must agree
byte for byte).
"""

from __future__ import annotations

import re
import time

import pytest

from bench import definition, use_source_tree

use_source_tree()

from bench.compare import compare_runs, verdict  # noqa: E402
from bench.measure import END_TO_END, Expected  # noqa: E402
from bench.trace import LAYERS, Tracer, layer_metrics  # noqa: E402
from bench.workloads import WORKLOADS, artifact_counts  # noqa: E402
from repro.core.chaos import artifact_digests  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


@pytest.fixture(scope="module")
def spec():
    return definition()


def test_definition_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(part) <= 200 for part in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.fullmatch(path)
        assert not path.startswith("/") and ".." not in path.split("/")
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60


def test_names_and_caps(spec):
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_definition_matches_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYERS


def _run(**metrics):
    """A synthetic ``bench run`` report for one workload."""
    def stats(median, spread=0.0, samples=None):
        return {"median": median, "q1": median * (1 - spread / 2),
                "q3": median * (1 + spread / 2), "n": 5,
                "samples": samples or [median]}
    filled = {"study_s": stats(3.0), "cpu_s": stats(3.0),
              "setup_s": stats(1.0), "peak_rss_mb": stats(100.0),
              "fail_frac": stats(0.0)}
    filled.update({name: stats(*value) for name, value in metrics.items()})
    return {"workloads": {"study_paper": {"metrics": filled}}}


_SPEC = {
    "workloads": [{"name": "study_paper"}],
    "end_to_end": [
        {"name": "study_s", "better": "lower", "bound": 0.1},
        {"name": "cpu_s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ],
}


def _verdicts(base, new):
    return {row["metric"]: row["verdict"]
            for row in compare_runs(base, new, _SPEC)}


def test_compare_same_better_worse():
    base = _run()
    assert set(_verdicts(base, base).values()) == {"same"}
    faster = _verdicts(base, _run(study_s=(2.5,)))
    assert faster["study_s"] == "better" and faster["cpu_s"] == "same"
    slower = _verdicts(base, _run(study_s=(3.5,), setup_s=(1.1,)))
    assert slower["study_s"] == "worse"
    assert slower["setup_s"] == "same"  # +10% is inside its 20% bound


def test_compare_unresolved_when_spread_exceeds_bound():
    base = _run(study_s=(3.0, 0.3, [2.6, 3.0, 3.4]))
    noisy = _verdicts(base, _run(study_s=(3.5, 0.3, [3.0, 3.5, 4.0])))
    assert noisy["study_s"] == "unresolved"
    # Every new sample beating every base sample still reads as better.
    clear = _verdicts(base, _run(study_s=(2.0, 0.3, [1.8, 2.0, 2.2])))
    assert clear["study_s"] == "better"


def test_compare_fail_frac_any_rise_is_worse():
    assert _verdicts(_run(), _run(fail_frac=(0.1,)))["fail_frac"] == "worse"


def test_verdict_higher_is_better():
    base = {"median": 10.0, "q1": 10.0, "q3": 10.0}
    assert verdict(base, {"median": 12.0, "q1": 12.0, "q3": 12.0},
                   0.1, "higher")["verdict"] == "better"
    assert verdict(base, {"median": 8.0, "q1": 8.0, "q3": 8.0},
                   0.1, "higher")["verdict"] == "worse"


@pytest.fixture(scope="module")
def quick_units(tmp_path_factory):
    """One quick-scale unit of every workload (seed 7)."""
    units = {}
    for name, cls in WORKLOADS.items():
        workload = cls(7, str(tmp_path_factory.mktemp(name)), quick=True)
        workload.prepare()
        workload.before_unit()
        unit = workload.run_unit()
        units[name] = (workload, unit)
    return units


def test_smoke_every_workload(quick_units):
    digests = {name: artifact_digests(unit.results)
               for name, (_, unit) in quick_units.items()}
    paper = [digests[name] for name, (workload, _) in quick_units.items()
             if workload.family == "paper"]
    assert len(paper) == 3
    assert paper[0] == paper[1] == paper[2]
    assert digests["dataplane_dos90"] != paper[0]
    workload, unit = quick_units["serve_resume"]
    assert len(unit.operators) == 6
    assert workload.once(unit) == []


def test_golden_gate_rejects_other_bytes(quick_units):
    # Seed 7 has paper-scale goldens; a quick-scale unit must not pass.
    _, unit = quick_units["study_paper"]
    problems = Expected("paper", 7).check(unit, full=True)
    assert any("row counts" in problem for problem in problems)
    assert any("digest" in problem for problem in problems)


def test_tracer_covers_unit_and_restores_bindings(tmp_path):
    from repro.scanner.zmap import InternetScanner

    original = InternetScanner.__dict__["run_campaign"]
    workload = WORKLOADS["study_paper"](7, str(tmp_path), quick=True)
    tracer = Tracer()
    tracer.start_unit(0)
    try:
        assert InternetScanner.__dict__["run_campaign"] is not original
        started = time.perf_counter()
        unit = workload.run_unit()
        wall = time.perf_counter() - started
    finally:
        traced = tracer.stop_unit()
    assert InternetScanner.__dict__["run_campaign"] is original
    metrics = layer_metrics(traced, wall, unit.phase_seconds)
    assert metrics["trace.top_level_frac"] >= 0.8
    assert metrics["attacks.events"] == artifact_counts(unit.results)[
        "attacks.events"]
    assert metrics["protocols.handle_calls"] > 0
    assert tracer.calls["repro.scanner.zmap:run_tasks"] > 0
    names = {span["name"] for span in tracer.spans}
    assert {"internet.build", "scanner.campaign", "attacks.run",
            "telescope.capture"} <= names
