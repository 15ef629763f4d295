"""One workload, one seed, one measured run: the benchmark's core loop.

A run is a closed loop with one client:

1. **set-up** — :data:`SETUP_REPEATS` fresh interpreters each import the
   package and run the workload's fixture and one unit at quick scale;
   ``setup_s`` is their median wall time (skipped when tracing);
2. **fixture and warm-up** — the workload's fixture, then one untimed
   unit, checked in full, plus the once-per-run checks;
3. **timed units** — back to back until the next one would overrun
   ``--seconds`` (at least :data:`MIN_UNITS`), with ``gc.collect()`` and
   the correctness check between units, outside the timed region.

With ``--trace 1`` every second timed unit runs under the
:class:`~bench.trace.Tracer`; the others give the untraced time that
``trace.overhead_frac`` compares against.

Correctness: every unit's row counts, and the artifact digests of every
unit (of the first timed one only for ``dataplane_dos90``, inside the
measured window so that the run stays bounded), must equal the goldens
in ``bench/goldens.json`` for seeds 7 and 23.  For other seeds the first
run of a workload family in this checkout records them under
``bench/out/expected/`` and every later unit, run and workload of that
family must match.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from bench import BENCH, OUT, ROOT
from bench.trace import LAYERS, Tracer, layer_metrics
from bench.workloads import WORKLOADS, Unit, artifact_counts
from repro.core.chaos import artifact_digests
from repro.core.fidelity import score_study

__all__ = ["measure", "cold_start", "END_TO_END"]

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed units per run, whatever ``--seconds`` says.
MIN_UNITS = 3
#: End-to-end metric → unit, as ``BENCHMARK.json`` lists them.
END_TO_END = {"study_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def _say(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def cold_start(name: str, seed: int) -> float:
    """Wall time of one fresh interpreter running a quick-scale unit."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "coldstart",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    seconds = time.perf_counter() - started
    if completed.returncode != 0:
        raise RuntimeError(
            f"cold start of {name} failed: {completed.stderr.strip()[-400:]}"
        )
    return seconds


def run_cold(name: str, seed: int) -> None:
    """The body of one :func:`cold_start` child."""
    workdir = str(OUT / "work" / f"cold-{name}-{os.getpid()}")
    try:
        workload = WORKLOADS[name](seed, workdir, quick=True)
        workload.prepare()
        workload.before_unit()
        workload.run_unit()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Expected:
    """What every unit of one workload family must reproduce for a seed."""

    def __init__(self, family: str, seed: int) -> None:
        goldens = json.loads((BENCH / "goldens.json").read_text())
        self.golden = goldens["seeds"].get(str(seed), {}).get(family)
        self.path = OUT / "expected" / f"seed-{seed}-{family}.json"
        recorded = self.golden
        if recorded is None and self.path.is_file():
            recorded = json.loads(self.path.read_text())
        recorded = recorded or {}
        self.counts: Optional[Dict[str, int]] = recorded.get("counts")
        self.digests: Optional[Dict[str, str]] = recorded.get("digests")
        self.fidelity: Optional[float] = recorded.get("fidelity_mre")
        self.operators: Optional[Dict[str, str]] = None

    def check(self, unit: Unit, full: bool) -> List[str]:
        """Problems with one unit's output (empty when it is correct)."""
        problems: List[str] = []
        counts = artifact_counts(unit.results)
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            problems.append(f"row counts {counts} != expected {self.counts}")
        if full:
            digests = artifact_digests(unit.results)
            if self.digests is None:
                self.digests = digests
                self._record()
            for name, digest in sorted(digests.items()):
                if self.digests.get(name) != digest:
                    problems.append(
                        f"{name} digest {digest[:12]} != expected "
                        f"{str(self.digests.get(name))[:12]}"
                    )
        if unit.operators:
            if self.operators is None:
                self.operators = unit.operators
            elif unit.operators != self.operators:
                problems.append("operator snapshot digests changed between "
                                "units")
        return problems

    def check_fidelity(self, error: float) -> List[str]:
        """Golden seeds pin the paper-fidelity score exactly."""
        if self.golden is None or self.fidelity is None:
            return []
        if abs(error - self.fidelity) > 1e-12:
            return [f"fidelity mean relative error {error!r} != golden "
                    f"{self.fidelity!r}"]
        return []

    def _record(self) -> None:
        if self.golden is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temp = self.path.with_suffix(f".{os.getpid()}.tmp")
        temp.write_text(json.dumps(
            {"counts": self.counts, "digests": self.digests}, indent=1))
        os.replace(temp, self.path)


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return {"median": value, "q1": value, "q3": value, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload; return the detail record (see ``result_line``)."""
    cls = WORKLOADS[name]
    workdir = str(OUT / "work" / f"{name}-{os.getpid()}")
    detail: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "problems": [],
    }
    problems: List[str] = detail["problems"]
    attempted = failed = 0
    setup: List[float] = []
    walls: List[float] = []
    cpus: List[float] = []
    traced_walls: List[float] = []
    layers: List[Dict[str, float]] = []
    tracer = Tracer() if trace else None
    expected = Expected(cls.family, seed)
    try:
        if not trace:
            for _ in range(SETUP_REPEATS):
                setup.append(cold_start(name, seed))
            _say(f"{name}: set-up {statistics.median(setup):.3f}s "
                 f"(median of {len(setup)})")
        workload = cls(seed, workdir)
        started = time.perf_counter()
        workload.prepare()
        workload.before_unit()
        warm = workload.run_unit()
        attempted += 1
        found = expected.check(warm, full=workload.digest_every_unit)
        found += workload.once(warm)
        if name == "study_paper":
            error = score_study(warm.results).mean_relative_error()
            detail["fidelity_mre"] = error
            found += expected.check_fidelity(error)
        detail["fixture_and_warmup_s"] = time.perf_counter() - started
        if found:
            failed += 1
            problems.extend(f"warm-up: {problem}" for problem in found)
        del warm

        window = time.perf_counter()
        index = 0
        while True:
            cycle = time.perf_counter()
            traced = tracer is not None and index % 2 == 1
            workload.before_unit()
            gc.collect()
            if traced:
                tracer.start_unit(index)
            unit: Optional[Unit] = None
            cpu = _cpu_seconds()
            start = time.perf_counter()
            try:
                unit = workload.run_unit()
            except Exception as error:  # a failed unit is a counted failure
                found = [f"{type(error).__name__}: {error}"]
            wall = time.perf_counter() - start
            cpu = _cpu_seconds() - cpu
            traced_unit = tracer.stop_unit() if traced else None
            attempted += 1
            if unit is not None:
                found = expected.check(
                    unit, full=workload.digest_every_unit or index == 0)
                if traced:
                    traced_walls.append(wall)
                    layers.append(layer_metrics(
                        traced_unit, wall, unit.phase_seconds))
                else:
                    walls.append(wall)
                    cpus.append(cpu)
            if found:
                failed += 1
                problems.extend(f"unit {index}: {problem}" for problem in found)
            _say(f"{name}: unit {index} {wall:.3f}s"
                 f"{' traced' if traced else ''}"
                 f"{' FAILED' if found else ''}")
            del unit
            index += 1
            # Stop when a unit as long as this one, check included,
            # would end past the window.
            now = time.perf_counter()
            if index >= MIN_UNITS and now - window + (now - cycle) > seconds:
                break
    except Exception as error:
        failed += 1
        attempted = max(attempted, 1)
        problems.append(f"{type(error).__name__}: {error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update({
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "counts": expected.counts,
        "digests": expected.digests,
        "operators": expected.operators,
        "samples": {"study_s": walls, "cpu_s": cpus, "setup_s": setup},
    })
    OUT.mkdir(parents=True, exist_ok=True)
    if trace:
        detail["layers"] = _trace_summary(layers, walls, traced_walls)
        detail["coverage"] = dict(tracer.calls)
        with open(OUT / f"trace-{name}.jsonl", "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    else:
        detail["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        detail["metrics"] = {
            "study_s": _quartiles(walls),
            "cpu_s": _quartiles(cpus),
            "setup_s": _quartiles(setup),
            "peak_rss_mb": _quartiles([detail["peak_rss_mb"]]),
            "fail_frac": _quartiles([failed / attempted]),
        }
    suffix = "-trace" if trace else ""
    (OUT / f"measure-{name}{suffix}.json").write_text(
        json.dumps(detail, indent=1))
    return detail


def _trace_summary(layers: List[Dict[str, float]], walls: List[float],
                   traced: List[float]) -> Dict[str, float]:
    """Median of each per-layer figure over the traced units."""
    summary: Dict[str, float] = {}
    if layers:
        for metric in layers[0]:
            summary[metric] = statistics.median(
                unit[metric] for unit in layers)
    if walls and traced:
        summary["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(walls) - 1.0)
    summary["tasks.worker_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    return summary


def result_line(detail: Dict[str, Any]) -> Dict[str, Any]:
    """The result object ``measure`` prints last: ``correct``, counts, metrics."""
    if detail["trace"]:
        values = {name: (detail["layers"].get(name), unit)
                  for name, unit in LAYERS.items()}
    else:
        values = {name: (detail["metrics"][name]["median"], unit)
                  for name, unit in END_TO_END.items()}
    return {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
            if value is not None and value == value  # drop NaN
        },
    }
