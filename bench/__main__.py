"""Command line: ``python3 -m bench {measure,run,trace,compare}``.

``measure`` runs one workload and prints, as its last line of standard
output, ``{"correct", "attempted", "failed", "metrics"}``; ``run`` and
``trace`` run every workload of ``BENCHMARK.json``, each in its own
``measure`` subprocess, one after another.  Exit codes: 0 when every
output was correct (and, for ``compare``, no row is worse), 1 otherwise,
2 when the checkout cannot run the benchmark at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from typing import Any, Dict, List, Optional

from bench import OUT, ROOT, SetupError, definition, use_source_tree

#: ``bench trace`` fails below this share of unit wall under top-level spans.
MIN_TOP_LEVEL_FRAC = 0.8


def machine_facts() -> Dict[str, Any]:
    """Where the numbers were measured."""
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def _measure_child(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run ``measure`` in a fresh interpreter; return its detail record."""
    path = OUT / f"measure-{name}{'-trace' if trace else ''}.json"
    if path.exists():
        path.unlink()
    subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, timeout=900,
    )
    if not path.is_file():
        raise SetupError(f"measure of {name} wrote no record to {path}")
    return json.loads(path.read_text())


def cmd_measure(args) -> int:
    from bench.measure import measure, result_line

    detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in detail["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(json.dumps(result_line(detail)))
    return 0 if detail["correct"] else 1


def cmd_coldstart(args) -> int:
    from bench.measure import run_cold

    run_cold(args.workload, args.seed)
    return 0


def cmd_run(args) -> int:
    from bench.workloads import WORKLOADS

    spec = definition()
    seconds = args.seconds or spec["run_seconds"]
    report: Dict[str, Any] = {
        "seed": args.seed, "run_seconds": seconds,
        "machine": machine_facts(), "problems": [], "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        detail = _measure_child(name, args.seed, seconds, trace=False)
        metrics = detail["metrics"]
        for metric, samples in detail["samples"].items():
            metrics[metric]["samples"] = samples
        report["workloads"][name] = {
            key: detail.get(key) for key in (
                "correct", "attempted", "failed", "problems", "counts",
                "digests", "operators", "fidelity_mre",
                "fixture_and_warmup_s", "metrics",
            )
        }
        if not detail["correct"]:
            report["problems"].append(f"{name} produced incorrect output")
    paper = {
        name: json.dumps(entry["digests"], sort_keys=True)
        for name, entry in report["workloads"].items()
        if WORKLOADS[name].family == "paper"
    }
    if len(set(paper.values())) > 1:
        report["problems"].append(
            f"paper-config workloads disagree on artifact bytes: {paper}")
    out = args.out or str(OUT / f"run-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"{'workload':<22} {'metric':<12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'n':>3}")
    for name, entry in report["workloads"].items():
        for metric, stats in entry["metrics"].items():
            print(f"{name:<22} {metric:<12} {stats['median']:>10.4g} "
                  f"{stats['q1']:>10.4g} {stats['q3']:>10.4g} "
                  f"{stats['n']:>3}")
    for problem in report["problems"]:
        print(f"FAIL: {problem}")
    print(f"wrote {out}")
    return 1 if report["problems"] else 0


def cmd_trace(args) -> int:
    spec = definition()
    seconds = args.seconds or spec["run_seconds"]
    names = [workload["name"] for workload in spec["workloads"]]
    details = {}
    for name in names:
        details[name] = _measure_child(name, args.seed, seconds, trace=True)
    problems: List[str] = [
        f"{name} produced incorrect output"
        for name, detail in details.items() if not detail["correct"]
    ]
    coverage: Counter = Counter()
    for detail in details.values():
        coverage.update(detail["coverage"])
    problems.extend(
        f"wrapped entry point {target} recorded no call on any workload"
        for target, calls in sorted(coverage.items()) if calls == 0
    )
    for name, detail in details.items():
        frac = detail["layers"].get("trace.top_level_frac", 0.0)
        if frac < MIN_TOP_LEVEL_FRAC:
            problems.append(f"{name}: top-level spans cover {frac:.0%} of "
                            f"unit wall (< {MIN_TOP_LEVEL_FRAC:.0%})")
    print(f"{'metric':<34}" + "".join(f" {name[:21]:>21}" for name in names))
    for metric in spec["per_layer"]:
        cells = "".join(
            f" {details[name]['layers'].get(metric['name'], float('nan')):>21.6g}"
            for name in names
        )
        print(f"{metric['name']:<34}{cells}")
    for name in names:
        print(f"spans: {OUT / f'trace-{name}.jsonl'}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


def cmd_compare(args) -> int:
    from bench.compare import compare_runs, render

    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    rows = compare_runs(base, new, definition())
    print(render(rows))
    worse = [row for row in rows if row["verdict"] == "worse"]
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser("measure", help="one workload, one run")
    measure.add_argument("--workload", required=True)
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.set_defaults(handler=cmd_measure)

    cold = commands.add_parser("coldstart",
                               help="one quick-scale unit (set-up probe)")
    cold.add_argument("--workload", required=True)
    cold.add_argument("--seed", type=int, required=True)
    cold.set_defaults(handler=cmd_coldstart)

    run = commands.add_parser("run", help="every workload, end-to-end")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out")
    run.add_argument("--seconds", type=int)
    run.set_defaults(handler=cmd_run)

    trace = commands.add_parser("trace", help="every workload, per layer")
    trace.add_argument("--seed", type=int, required=True)
    trace.add_argument("--seconds", type=int)
    trace.set_defaults(handler=cmd_trace)

    compare = commands.add_parser("compare", help="BASE.json vs NEW.json")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(handler=cmd_compare)

    args = parser.parse_args(argv)
    try:
        use_source_tree()
        if args.command in ("measure", "coldstart"):
            from bench.workloads import WORKLOADS

            if args.workload not in WORKLOADS:
                parser.error(f"unknown workload {args.workload!r}; "
                             f"expected one of {', '.join(WORKLOADS)}")
        return args.handler(args)
    except SetupError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
