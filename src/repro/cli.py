"""Command-line interface: ``python -m repro <command>``.

Commands mirror the study phases so a shell user can reproduce any single
experiment without writing Python:

* ``run``        — the full eight-phase study, printing every table;
* ``scan``       — scan + fingerprint + classify (Tables 4/5/6/10, Fig 2);
* ``attacks``    — the honeypot month (Table 7, Figures 7/8/9);
* ``telescope``  — the darknet capture (Table 8) with optional FlowTuple
  export;
* ``intersect``  — the §5.3 infected-host join;
* ``validate``   — run the cross-plane structural invariants
  (:mod:`repro.core.validate`) over the study artifacts, reporting any
  violation and exiting 5;
* ``serve``      — the streaming campaign service
  (:mod:`repro.stream`): an HTTP control surface to start paced
  campaigns, poll status, and tail live events/alerts as SSE.  SIGTERM
  or SIGINT drain active campaigns and SSE clients, then exit 0;

All commands accept ``--seed`` and the scale knobs, so campaigns are
reproducible from the shell line alone, plus the engine knobs:
``--shards K`` (concurrent scan shards per protocol sweep — also byte
identical for every K, with per-shard timings in the metrics),
``--attack-workers K`` (concurrent (honeypot, day) / (protocol, day)
generation tasks for the attack and telescope months — byte identical for
every K, with per-task timings in the metrics), ``--executor
{serial,process,auto}`` (what runs those task batches — ``process`` fans
striped chunks out to worker processes for the months and scan shards,
byte-identical to ``serial``; ``auto``, the default, picks ``process``
when there is more than one worker and more than one core),
``--cache-dir PATH`` (persistent on-disk phase cache shared across
invocations), ``--no-cache``, and ``--metrics-json PATH`` (per-phase
wall time, cache hits, shard/task timings, store batch counts and
throughput as JSON, for scripted campaigns).

Robustness knobs (all byte-identity preserving):

* ``--retries N`` — retry transiently-failed supervised tasks up to N
  times (tasks are pure functions of derived PRNG keys, so a retry is
  byte-identical to an undisturbed first run);
* ``--fail-policy {abort,degrade}`` — whether a failing *optional* phase
  (sonar/shodan vantage, intel enrichment) aborts the study or is
  recorded as ``degraded`` in the metrics while the study completes;
* ``--resume`` — replay the per-task completion journal a previous
  interrupted invocation left under ``--cache-dir``, re-executing only
  unfinished tasks on the five journaled planes (scan, sonar, shodan,
  attacks, telescope; output byte-identical to an uninterrupted run);
* ``--task-deadline SOFT[:HARD]`` — per-task wall-time supervision in
  seconds: overrunning SOFT records a stall warning in the metrics;
  overrunning HARD retries the task as a transient fault (byte-identical
  on the attack/telescope planes — tasks are pure functions of derived
  PRNG keys);
* ``--inject-faults SPEC`` — deterministic seeded fault injection for
  testing the above: comma-separated ``site[@plane]:rate[:kind][:delay]``
  rules over the sites ``task``, ``cache.io``, ``store.corrupt``
  (bit-flips journal/cache blobs, proving envelope quarantine),
  ``deadline`` (injects task delays of ``delay`` seconds),
  ``fabric.connect``, ``dataset.load``, ``worker.crash`` (a pool worker
  calls ``os._exit``, driving the supervisor's pool rebuild),
  ``worker.hang`` (a pool worker sleeps ``delay`` seconds, driving the
  no-progress watchdog); an ``@plane`` suffix scopes a rule to one
  measurement plane's task keys.

Exit codes are stable for shell scripting and defined once as
:class:`repro.core.errors.ExitCode`: 0 on success, 2 for an invalid
configuration (:class:`~repro.net.errors.ConfigError`; argparse usage
errors also exit 2), 3 for a phase-ordering violation
(:class:`~repro.net.errors.PhaseOrderError`), 4 for a failed supervised
task or unhandled injected fault (:class:`~repro.net.errors.TaskFailure`,
:class:`~repro.net.errors.FaultError`), 5 when ``validate`` finds a
structural invariant violated, 6 when ``serve`` cannot start or the
streaming service fails (:class:`~repro.net.errors.ServeError`).  Code 7
is retired and will not be reused.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro import Study, StudyConfig, __version__
from repro.attacks.schedule import AttackScheduleConfig
from repro.core import faults
from repro.core.columns import joined_pieces
from repro.core.engine import PhaseCache
from repro.core.faults import FaultPlan
from repro.core.report import (
    render_case_studies,
    render_figure2,
    render_figure7,
    render_figure8,
    render_figure9,
    render_intersection,
    render_table4,
    render_table5,
    render_table6,
    render_table7,
    render_table8,
    render_table10,
)
from repro.core.errors import ExitCode
from repro.internet.population import PopulationConfig
from repro.net.errors import (
    ConfigError,
    FaultError,
    PhaseOrderError,
    ServeError,
    TaskFailure,
    ValidationError,
)

__all__ = ["main", "build_parser"]

#: Exit codes, stable across releases.  The canonical definition is
#: :class:`repro.core.errors.ExitCode`; these module-level aliases keep
#: the pre-1.3 spelling (``from repro.cli import EXIT_CONFIG``) working.
EXIT_OK = ExitCode.OK
EXIT_CONFIG = ExitCode.CONFIG
EXIT_PHASE_ORDER = ExitCode.PHASE_ORDER
EXIT_TASK_FAILURE = ExitCode.TASK_FAILURE
EXIT_VALIDATION = ExitCode.VALIDATION
EXIT_SERVE = ExitCode.SERVE


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument grammar."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Open for hire' (IMC 2021) on a simulated Internet."
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("--seed", type=int, default=7,
                         help="study seed (default 7)")
        sub.add_argument("--quick", action="store_true",
                         help="coarse scales for a ~1s run")
        sub.add_argument("--shards", type=int, default=1, metavar="K",
                         help="concurrent address shards per protocol scan "
                              "(byte-identical output for every K; "
                              "default 1)")
        sub.add_argument("--attack-workers", type=int, default=1,
                         metavar="K",
                         help="concurrent (honeypot, day) / (protocol, day) "
                              "workers for the attack and telescope months "
                              "(byte-identical output for every K; "
                              "default 1)")
        sub.add_argument("--executor", default="auto",
                         metavar="{serial,process,auto}",
                         help="task executor for the sharded planes: "
                              "'process' fans (honeypot, day) / "
                              "(protocol, day) / scan-shard chunks out to "
                              "worker processes (byte-identical output), "
                              "'serial' runs them inline, "
                              "'auto' (default) picks per machine")
        sub.add_argument("--no-cache", action="store_true",
                         help="disable phase-artifact memoization")
        sub.add_argument("--cache-dir", metavar="PATH", default="",
                         help="persist phase artifacts to PATH so repeated "
                              "invocations reuse the world/scan phases")
        sub.add_argument("--metrics-json", metavar="PATH", default="",
                         help="write per-phase wall time, cache hits and "
                              "rates as JSON to PATH ('-' for stdout)")
        sub.add_argument("--retries", type=int, default=0, metavar="N",
                         help="retry transiently-failed supervised tasks "
                              "up to N times (byte-identical output; "
                              "default 0)")
        sub.add_argument("--fail-policy", choices=("abort", "degrade"),
                         default="abort",
                         help="what a failing optional phase does: abort "
                              "the study (default) or record the phase as "
                              "degraded and continue")
        sub.add_argument("--resume", action="store_true",
                         help="replay the per-task completion journal of a "
                              "previous interrupted run on every task "
                              "plane: scan, sonar, shodan, attacks, "
                              "telescope (requires --cache-dir; output is "
                              "byte-identical to an uninterrupted run)")
        sub.add_argument("--task-deadline", metavar="SOFT[:HARD]",
                         default="",
                         help="per-task wall-time supervision in seconds: "
                              "overrunning SOFT records a stall warning "
                              "in the metrics, overrunning HARD retries "
                              "the task as a transient fault")
        sub.add_argument("--inject-faults", metavar="SPEC", default="",
                         help="deterministic fault injection for testing: "
                              "comma-separated "
                              "site[@plane]:rate[:kind][:delay] rules "
                              "(sites: task, cache.io, store.corrupt, "
                              "deadline, fabric.connect, dataset.load, "
                              "worker.crash, worker.hang)")

    run = subparsers.add_parser("run", help="full study, all tables")
    add_common(run)

    scan = subparsers.add_parser(
        "scan", help="scan + fingerprint + classify phases only"
    )
    add_common(scan)
    scan.add_argument("--scale", type=int, default=None,
                      help="population scale divisor (default per config)")
    scan.add_argument("--eu-blocklist", action="store_true",
                      help="apply the FireHOL-style Europe blocklist")
    scan.add_argument("--export", metavar="PATH", default="",
                      help="write merged scan rows as JSONL")

    attacks = subparsers.add_parser(
        "attacks", help="the honeypot month only"
    )
    add_common(attacks)
    attacks.add_argument("--attack-scale", type=int, default=None,
                         help="event scale divisor (default per config)")
    attacks.add_argument("--days", type=int, default=30,
                         help="observation days (default 30)")

    telescope = subparsers.add_parser(
        "telescope", help="the darknet capture only"
    )
    add_common(telescope)
    telescope.add_argument("--export-day", type=int, default=None,
                           metavar="DAY",
                           help="print the FlowTuple lines of one day")

    intersect = subparsers.add_parser(
        "intersect", help="the §5.3 infected-host join"
    )
    add_common(intersect)

    validate = subparsers.add_parser(
        "validate",
        help="run the cross-plane structural invariants over the study "
             "artifacts (exit 5 on violation)",
    )
    add_common(validate)

    serve = subparsers.add_parser(
        "serve",
        help="run the streaming campaign control API "
             "(POST /sim/start, GET /campaigns/<id>/status|tail)",
    )
    add_common(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8765)")
    serve.add_argument("--events-per-second", type=float, default=0.0,
                       metavar="EPS",
                       help="default replay pacing for started campaigns "
                            "(0 = unpaced; per-request override via the "
                            "/sim/start body)")
    serve.add_argument("--batch-size", type=int, default=256, metavar="N",
                       help="default rows per operator batch (any value "
                            "yields identical final snapshots; default "
                            "256)")
    serve.add_argument("--publish-policy", default="block",
                       metavar="{block,drop_oldest,latest}",
                       help="bus overload policy when --queue-capacity "
                            "bounds publishing: 'block' applies "
                            "backpressure (lossless, default), "
                            "'drop_oldest'/'latest' shed batches with "
                            "overflow accounting")
    serve.add_argument("--queue-capacity", type=int, default=0,
                       metavar="N",
                       help="bound the bus publish queue at N batches "
                            "(0 = synchronous in-thread delivery; "
                            "default 0)")
    serve.add_argument("--max-campaigns", type=int, default=None,
                       metavar="N",
                       help="reject /sim/start with 503 + Retry-After "
                            "once N campaigns are active (default: "
                            "unlimited)")
    serve.add_argument("--stall-timeout", type=float, default=0.0,
                       metavar="SECONDS",
                       help="campaign watchdog: alert and flag 'stalled' "
                            "after this many seconds without progress "
                            "(0 disables; default 0)")

    return parser


def _config(args) -> StudyConfig:
    config = (StudyConfig.quick(seed=args.seed) if args.quick
              else StudyConfig.paper_scale(seed=args.seed))
    if getattr(args, "scale", None):
        config.population = PopulationConfig(
            seed=args.seed, scale=args.scale,
            honeypot_scale=max(1, args.scale // 16),
        )
    if getattr(args, "attack_scale", None):
        config.attacks = AttackScheduleConfig(
            seed=args.seed, attack_scale=args.attack_scale,
            days=getattr(args, "days", 30),
        )
    elif getattr(args, "days", 30) != 30:
        config.attacks.days = args.days
    if getattr(args, "eu_blocklist", False):
        config.use_eu_blocklist = True
    if getattr(args, "shards", 1) != 1:
        config.scan.shards = args.shards
        config.scan.validate()  # ConfigError -> exit code 2
    if getattr(args, "attack_workers", 1) != 1:
        config.attacks.workers = args.attack_workers
        config.telescope.workers = args.attack_workers
        config.attacks.validate()  # ConfigError -> exit code 2
        config.telescope.validate()
    if getattr(args, "retries", 0):
        config.scan.retries = args.retries
        config.attacks.retries = args.retries
        config.telescope.retries = args.retries
        config.scan.validate()  # ConfigError -> exit code 2
        config.attacks.validate()
        config.telescope.validate()
    config.fail_policy = getattr(args, "fail_policy", "abort")
    if getattr(args, "cache_dir", ""):
        # Journals live beside the phase cache; written on every cached
        # run (crash safety is free), replayed only under --resume.
        config.journal_dir = os.path.join(args.cache_dir, "journal")
    if getattr(args, "resume", False):
        if not getattr(args, "cache_dir", ""):
            raise ConfigError(
                "--resume requires --cache-dir (the journal a resumed "
                "run replays lives under it)"
            )
        config.resume = True
    if getattr(args, "task_deadline", ""):
        config.task_deadline = args.task_deadline
    executor = getattr(args, "executor", "auto")
    if executor != "auto":
        # No argparse `choices`, so an unknown value surfaces as the
        # typed ConfigError -> exit code 2 from the final validate().
        # Sub-configs inherited the study default at construction, so
        # stamp them directly.
        config.executor = executor
        for sub in (config.scan, config.attacks, config.telescope):
            sub.executor = executor
    config.validate()  # ConfigError -> exit code 2
    return config


def _study(args) -> Study:
    """Build the study with the engine knobs the flags selected."""
    if args.no_cache:
        cache = False
    elif args.cache_dir:
        cache = PhaseCache(directory=args.cache_dir)
    else:
        cache = None  # the shared in-process cache
    return Study(_config(args), cache=cache)


def _write_metrics(study: Study, args, out) -> None:
    if not args.metrics_json:
        return
    # Fold the disk cache's quarantine trail in beside the journals'.
    cache = study.engine.cache
    if cache is not None and getattr(cache, "quarantined", None):
        study.metrics.record_quarantines(cache.quarantined)
    text = study.metrics.to_json()
    if args.metrics_json == "-":
        out.write(text + "\n")
    else:
        try:
            with open(args.metrics_json, "w") as handle:
                handle.write(text + "\n")
        except OSError as error:
            raise ConfigError(
                f"cannot write metrics to {args.metrics_json!r}: {error}"
            ) from error


def _cmd_run(args, out) -> int:
    started = time.perf_counter()
    study = _study(args)
    results = study.run()
    out.write(f"study completed in {time.perf_counter() - started:.1f}s\n\n")
    for renderer in (render_table4, render_table5, render_table6,
                     render_table10, render_figure2, render_table7,
                     render_figure7, render_figure8, render_figure9,
                     render_table8, render_case_studies,
                     render_intersection):
        out.write(renderer(results))
        out.write("\n\n")
    _write_metrics(study, args, out)
    return EXIT_OK


def _cmd_scan(args, out) -> int:
    study = _study(args)
    study.run_classification()  # auto-resolves world, scans, fingerprints
    for renderer in (render_table4, render_table6, render_table5,
                     render_table10, render_figure2):
        out.write(renderer(study.results))
        out.write("\n\n")
    if args.export:
        with open(args.export, "w") as handle:
            handle.writelines(
                joined_pieces(study.results.merged_db.iter_jsonl())
            )
        out.write(f"wrote {len(study.results.merged_db)} rows to "
                  f"{args.export}\n")
    _write_metrics(study, args, out)
    return EXIT_OK


def _cmd_attacks(args, out) -> int:
    study = _study(args)
    study.run_attacks()
    # Joins that only need the log.
    from repro.analysis.multistage import detect_multistage

    study.results.multistage = detect_multistage(
        study.results.schedule.log, study.results.schedule.rdns
    )
    for renderer in (render_table7, render_figure7, render_figure8,
                     render_figure9):
        out.write(renderer(study.results))
        out.write("\n\n")
    _write_metrics(study, args, out)
    return EXIT_OK


def _cmd_telescope(args, out) -> int:
    study = _study(args)
    capture = study.run_telescope()  # auto-resolves world + attacks
    out.write(render_table8(study.results))
    out.write("\n")
    out.write(f"rsdos attacks in capture: {len(capture.rsdos_truth)}\n")
    if args.export_day is not None:
        for line in capture.writer.lines_for_day(args.export_day):
            out.write(line + "\n")
    _write_metrics(study, args, out)
    return EXIT_OK


def _cmd_intersect(args, out) -> int:
    study = _study(args)
    results = study.run()
    out.write(render_intersection(results))
    out.write("\n")
    _write_metrics(study, args, out)
    return EXIT_OK


def _cmd_validate(args, out) -> int:
    from repro.core.validate import default_registry

    study = _study(args)
    registry = default_registry()
    violations = study.validate(registry)
    failed = {violation.invariant for violation in violations}
    for invariant in registry.invariants():
        status = "FAIL" if invariant.name in failed else "ok"
        out.write(f"{invariant.name:<32} {status}\n")
    for violation in violations:
        out.write(f"  {violation.invariant}: {violation.message}\n")
    _write_metrics(study, args, out)
    if violations:
        out.write(
            f"{len(violations)} invariant violation(s) across "
            f"{len(failed)} invariant(s)\n"
        )
        return EXIT_VALIDATION
    out.write(f"all {len(registry)} invariants hold\n")
    return EXIT_OK


def _cmd_serve(args, out) -> int:
    import signal
    import threading

    from repro.stream.server import ControlServer
    from repro.stream.service import StreamConfig

    def config_factory(request):
        # Per-request bodies override the CLI's seed/scale; the quick
        # profile keeps interactively started campaigns snappy.
        merged = {"seed": args.seed}
        merged.update(request)
        from repro.stream.server import default_config_factory

        return default_config_factory(merged)

    defaults = StreamConfig(
        events_per_second=args.events_per_second,
        batch_size=args.batch_size,
        queue_capacity=args.queue_capacity,
        publish_policy=args.publish_policy,
        stall_timeout=args.stall_timeout,
    )
    defaults.validate()  # ConfigError -> exit code 2
    server = ControlServer(
        args.host, args.port,
        config_factory=config_factory, stream_defaults=defaults,
        max_campaigns=args.max_campaigns,
    )
    stop = threading.Event()
    restore = []
    if threading.current_thread() is threading.main_thread():
        # SIGTERM (systemd/container stop) and SIGINT (Ctrl-C) both mean
        # "shut down cleanly": stop campaigns, drain tailing SSE clients,
        # close the listener, exit 0.
        def request_stop(signum, frame):
            stop.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                restore.append((signum, signal.signal(signum, request_stop)))
            except (ValueError, OSError):  # pragma: no cover
                pass
    out.write(
        f"repro control API on http://{server.host}:{server.port} "
        "(POST /sim/start to launch a campaign; SIGTERM/Ctrl-C to stop)\n"
    )
    if hasattr(out, "flush"):
        out.flush()
    server.start()
    try:
        while not stop.is_set():
            stop.wait(0.2)
        out.write("\nshutting down: draining campaigns and tail clients\n")
        if hasattr(out, "flush"):
            out.flush()
    except KeyboardInterrupt:
        out.write("\nshutting down: draining campaigns and tail clients\n")
    finally:
        server.shutdown()
        for signum, previous in restore:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
    return ExitCode.OK


_COMMANDS = {
    "run": _cmd_run,
    "scan": _cmd_scan,
    "attacks": _cmd_attacks,
    "telescope": _cmd_telescope,
    "intersect": _cmd_intersect,
    "validate": _cmd_validate,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    installed = False
    try:
        spec = getattr(args, "inject_faults", "")
        if spec:
            faults.install(FaultPlan.parse(spec, seed=args.seed))
            installed = True
        return _COMMANDS[args.command](args, out)
    except ConfigError as error:
        print(f"repro: configuration error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except PhaseOrderError as error:
        print(f"repro: phase-order error: {error}", file=sys.stderr)
        return EXIT_PHASE_ORDER
    except (TaskFailure, FaultError) as error:
        print(f"repro: task failure: {error}", file=sys.stderr)
        return EXIT_TASK_FAILURE
    except ValidationError as error:
        print(f"repro: validation error: {error}", file=sys.stderr)
        return EXIT_VALIDATION
    except ServeError as error:
        print(f"repro: serve error: {error}", file=sys.stderr)
        return EXIT_SERVE
    finally:
        if installed:
            faults.uninstall()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
