"""Fault-injection smoke: interrupted + resumed == uninterrupted.

Runs the sharded scan campaign on a 1:4096 world with faults armed at
three sites at once — fatal ``task`` verdicts, transient ``cache.io``
verdicts degrading journal writes to skipped stores, and a thin stream of
fatal ``fabric.connect`` infrastructure failures.  The campaign must be
interrupted (a :class:`~repro.net.errors.TaskFailure` naming the dead
task), leave a partial per-task completion journal behind, and — resumed
from that journal with the faults cleared — produce a byte-identical
:class:`~repro.scanner.records.ScanDatabase` to an uninterrupted
fault-free run.  The wall-time split between the three runs is printed
for the bench trail.

``REPRO_SMOKE_EXECUTOR`` selects the task executor (the ``process-smoke``
CI job sets it to ``process``): fault verdicts are pure functions of
(plan seed, site, key, attempt) and the worker initializer installs the
parent's plan, so the interruption, the journal contents and the resumed
bytes are identical whichever pool runs the shards.
"""

from __future__ import annotations

import os
import time

from conftest import compare

from repro.core import faults
from repro.core.faults import FaultPlan
from repro.core.tasks import TaskJournal
from repro.internet.population import PopulationBuilder, PopulationConfig
from repro.net.errors import TaskFailure
from repro.scanner.zmap import InternetScanner, ScanConfig

#: Four armed sites: supervised tasks die fatally, journal writes are
#: best-effort under I/O faults, the connect plane fails rarely but
#: fatally, and a thin stream of ``worker.crash`` verdicts ``os._exit``s
#: pool workers outright.  The crash site only fires inside a
#: process-pool worker, so it is inert on the serial executor and bites
#: on the pool (``REPRO_SMOKE_EXECUTOR=process``, or the default ``auto``
#: on a multi-core box) — where the pool supervisor must rebuild the
#: pool and requeue before the fatal
#: ``task`` verdict lands the interruption.  Seed 8 is pinned so the
#: interruption lands in the second protocol sweep — the first
#: protocol's completed shards are then journaled deterministically,
#: whatever the worker timing.
_FAULTS = ("task:0.3:fatal,cache.io:0.2:transient,"
           "fabric.connect:0.00002:fatal,worker.crash:0.03")
_FAULT_SEED = 8

_SHARDS = 4

#: Task executor under test ("serial"/"process"/"auto"; empty = default).
_EXECUTOR = os.environ.get("REPRO_SMOKE_EXECUTOR") or None


def _scanner():
    """A scanner over a freshly built 1:4096 world.

    Fresh per run: servers draw nonces (and the fabric counts per-flow
    probe attempts) for the life of a world instance, so only campaigns
    against identically-fresh worlds are byte-comparable.
    """
    world = PopulationBuilder(
        PopulationConfig(seed=7, scale=4096, honeypot_scale=256,
                         loss_rate=0.12)
    ).build()
    return InternetScanner(
        world.internet, ScanConfig(shards=_SHARDS, executor=_EXECUTOR)
    )


def test_interrupted_campaign_resumes_byte_identical(tmp_path):
    journal_dir = tmp_path / "journal"

    started = time.perf_counter()
    baseline_scanner = _scanner()
    baseline = baseline_scanner.run_campaign()
    baseline_seconds = time.perf_counter() - started
    total_tasks = _SHARDS * len(baseline_scanner.config.protocols)

    started = time.perf_counter()
    interrupted = None
    with faults.injected(FaultPlan.parse(_FAULTS, seed=_FAULT_SEED)):
        try:
            _scanner().run_campaign(journal=TaskJournal(journal_dir))
        except TaskFailure as failure:
            interrupted = failure
    interrupted_seconds = time.perf_counter() - started
    assert interrupted is not None, "fault plan failed to interrupt"
    completed = len(TaskJournal(journal_dir))
    assert 0 < completed < total_tasks, "journal not genuinely partial"

    started = time.perf_counter()
    journal = TaskJournal(journal_dir, resume=True)
    resumed = _scanner().run_campaign(journal=journal)
    resumed_seconds = time.perf_counter() - started

    assert resumed.to_jsonl() == baseline.to_jsonl()
    assert journal.hits == completed

    compare(
        "fault-injection smoke (scan plane, 1:4096 world, "
        f"executor={_EXECUTOR or 'default'})",
        [
        ("total (protocol, shard) tasks", total_tasks, total_tasks),
        ("tasks journaled before failure", "n/a", completed,
         f"died at {interrupted.ref.key()}"),
        ("journal replays on resume", "n/a", journal.hits),
        ("uninterrupted wall s", "n/a", round(baseline_seconds, 2)),
        ("interrupted wall s", "n/a", round(interrupted_seconds, 2)),
        ("resumed wall s", "n/a", round(resumed_seconds, 2),
         "byte-identical database"),
    ])
