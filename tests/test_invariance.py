"""The deployment knobs never move a byte: one seeded invariance property.

A quick-scale study's three plane stores (scan database, attack event
log, FlowTuple capture) and its Sonar/Shodan snapshots must not depend on
how the study was deployed: the executor, the scan shards, the attack and
telescope workers, the resume point, or the faults injected on the way.
:func:`run_draw` runs one such deployment and checks every draw against

* ``tests/plane_goldens.json`` for the plane stores;
* a clean serial run of the same seed for the provider snapshots;
* on a resume, the journal: every plane replays exactly the entries the
  interrupted run left that survive the armed read faults.

``test_any_deployment_is_byte_identical`` draws the knobs with
hypothesis; ``test_soak_draw_absorbs_every_fault_site`` arms every
transient and worker fault site at once, interrupts, resumes, and reads
from ``StudyMetrics`` that each site really fired.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
import tempfile
from collections import Counter
from typing import List, NamedTuple, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Study, StudyConfig
from repro.core import faults, tasks
from repro.core.chaos import artifact_digests
from repro.core.engine import PhaseCache
from repro.core.faults import FaultPlan, FaultRule
from repro.core.integrity import _HEADER_LEN, ENVELOPE_MAGIC
from repro.core.metrics import StudyMetrics
from repro.core.tasks import _UNSAFE_CHARS, JOURNAL_SCHEMA_VERSION, read_sealed
from repro.net.errors import TaskFailure
from tests.test_plane_goldens import golden

#: The transient sites every draw arms.  ``deadline`` sleeps 0.2 s: past
#: a 0.1 s hard deadline (a supervised retry), inside a 1 s one (a stall).
TRANSIENT_FAULTS = (
    "task:0.05,cache.io:0.1,store.corrupt:0.15,deadline:0.002:0.2"
)
#: The pool-worker sites a process draw may add: a crashed attack worker,
#: a telescope worker that sleeps past the pool watchdog.
WORKER_FAULTS = "worker.crash@attacks:0.005,worker.hang@telescope:0.01:5"
#: The pool's no-progress window while a draw runs (seconds).
HANG_TIMEOUT = 1.0
#: Rate of the fatal ``task`` rule that interrupts a draw's first run.
INTERRUPT_RATE = 0.5


class Draw(NamedTuple):
    """One deployment of ``StudyConfig.quick(seed)``."""

    seed: int
    executor: str
    shards: int
    attack_workers: int
    telescope_workers: int
    #: ``--inject-faults`` spec armed over the whole draw.
    faults: str
    fault_seed: int
    retries: int
    task_deadline: str
    #: Plane whose fatal ``task`` rule ends a first, journaled run before
    #: the draw resumes over its journal; ``None`` runs once.
    interrupt: Optional[str] = None


def _config(draw: Draw, journal_dir: str) -> StudyConfig:
    config = StudyConfig.quick(draw.seed)
    config.executor = draw.executor
    for sub in (config.scan, config.attacks, config.telescope):
        sub.executor = draw.executor
        sub.retries = draw.retries
    config.scan.shards = draw.shards
    config.attacks.workers = draw.attack_workers
    config.telescope.workers = draw.telescope_workers
    config.journal_dir = journal_dir
    config.resume = True
    config.task_deadline = draw.task_deadline
    config.validate()
    return config


def _run_planes(study: Study):
    study.run_scans()
    study.run_attacks()
    study.run_telescope()
    return study.results


def _provider_digests(results):
    return tuple(
        hashlib.sha256(db.to_jsonl().encode("utf-8")).hexdigest()
        for db in (results.sonar_db, results.shodan_db)
    )


@functools.lru_cache(maxsize=None)
def _clean_provider_digests(seed: int):
    config = StudyConfig.quick(seed)
    config.executor = "serial"
    for sub in (config.scan, config.attacks, config.telescope):
        sub.executor = "serial"
    study = Study(config, cache=False)
    study.run_scans()
    return _provider_digests(study.results)


def _entry_key(blob: bytes) -> str:
    """The task key an entry's envelope header names ('' if unreadable)."""
    start = len(ENVELOPE_MAGIC) + _HEADER_LEN.size
    try:
        (length,) = _HEADER_LEN.unpack_from(blob, len(ENVELOPE_MAGIC))
        return str(json.loads(blob[start:start + length])["key"])
    except (ValueError, KeyError, TypeError, struct.error):
        return ""


def _replayable(study: Study, plan: FaultPlan, journal_dir: str):
    """Per plane, how many journal entries a resume under ``plan`` reads.

    Read faults are pure in (plan seed, stage, key), so reading each entry
    through the journal's own ``read_sealed`` with ``plan`` armed (and
    quarantine a no-op) tells up front which entries a ``cache.io`` miss
    or a ``store.corrupt`` flip will cost the resume.  An entry whose
    header names another file's key was damaged on write: never read.
    """
    root = os.path.join(journal_dir, study.engine.fingerprint[:16])
    counts: Counter = Counter()
    with faults.injected(plan):
        for directory, _, names in os.walk(root):
            for name in names:
                path = os.path.join(directory, name)
                with open(path, "rb") as handle:
                    key = _entry_key(handle.read())
                if _UNSAFE_CHARS.sub("_", key) + ".pkl" != name:
                    continue
                counts[os.path.basename(directory)] += read_sealed(
                    path, stage="journal.load",
                    schema=JOURNAL_SCHEMA_VERSION, kind="journal", key=key,
                    fingerprint=study.engine.fingerprint,
                    quarantine=lambda reason: None,
                )[0]
    return counts


def run_draw(draw: Draw) -> List[StudyMetrics]:
    """Run one draw, assert its bytes, return each run's metrics."""
    plan = FaultPlan.parse(draw.faults, seed=draw.fault_seed)
    metrics = []
    with tempfile.TemporaryDirectory() as workdir, \
            tasks.pool_supervision(hang_timeout=HANG_TIMEOUT):
        journal_dir = os.path.join(workdir, "journal")
        replayable: Counter = Counter()
        if draw.interrupt is not None:
            fatal = FaultRule("task", INTERRUPT_RATE, "fatal",
                              plane=draw.interrupt)
            rules = dict(plan.rules, task=fatal)
            first = Study(_config(draw, journal_dir), cache=False)
            with faults.injected(FaultPlan(rules.values(), plan.seed)):
                with pytest.raises(TaskFailure):
                    _run_planes(first)
            metrics.append(first.metrics)
            replayable = _replayable(first, plan, journal_dir)
            cache = PhaseCache(directory=os.path.join(workdir, "cache"))
        else:
            cache = False
        study = Study(_config(draw, journal_dir), cache=cache)
        with faults.injected(plan):
            results = _run_planes(study)
        metrics.append(study.metrics)

    assert artifact_digests(results) == golden("study", draw.seed), draw
    assert _provider_digests(results) == _clean_provider_digests(
        draw.seed
    ), draw
    hits = {journal.plane: journal.hits for journal in study.metrics.journals}
    assert hits == {plane: replayable[plane] for plane in hits}, draw
    return metrics


@st.composite
def draws(draw) -> Draw:
    executor = draw(st.sampled_from(("serial", "process")))
    spec = TRANSIENT_FAULTS
    if executor == "process" and draw(st.booleans()):
        spec += "," + WORKER_FAULTS
    return Draw(
        seed=draw(st.sampled_from((7, 23))),
        executor=executor,
        shards=draw(st.integers(1, 3)),
        attack_workers=draw(st.integers(1, 3)),
        telescope_workers=draw(st.integers(1, 3)),
        faults=spec,
        fault_seed=draw(st.integers(0, 2**16)),
        retries=draw(st.integers(2, 3)),
        task_deadline=draw(st.sampled_from(("0.05:0.1", "0.05:1"))),
        interrupt=draw(
            st.sampled_from((None, "scan", "attacks", "telescope"))
        ),
    )


@settings(derandomize=True, deadline=None, max_examples=3)
@given(draw=draws())
@example(draw=Draw(
    seed=23, executor="process", shards=2, attack_workers=3,
    telescope_workers=2, faults=TRANSIENT_FAULTS + "," + WORKER_FAULTS,
    fault_seed=5, retries=2, task_deadline="0.05:0.1", interrupt="attacks",
))
def test_any_deployment_is_byte_identical(draw):
    run_draw(draw)


#: All six transient and worker sites at once, interrupted in the last
#: plane so the resume replays the largest journal.  Its ``deadline``
#: delay (0.2 s) lands inside the 1 s hard deadline: a stall, not a retry.
#: The 1 µs soft deadline leaves a stall row for every finished attempt,
#: so the rows' attempt numbers show the supervised retries.
SOAK_DRAW = Draw(
    seed=7, executor="process", shards=3, attack_workers=3,
    telescope_workers=3,
    faults="task:0.05,cache.io:0.1,store.corrupt:0.15,deadline:0.005:0.2,"
    + WORKER_FAULTS,
    fault_seed=93, retries=3, task_deadline="0.000001:1",
    interrupt="telescope",
)


def test_soak_draw_absorbs_every_fault_site():
    metrics = run_draw(SOAK_DRAW)
    supervisor = [event.reason for run in metrics for event in run.supervisor]
    stalls = [stall for run in metrics for stall in run.stalls]
    journals = [journal for run in metrics for journal in run.journals]
    assert "worker-crash" in supervisor
    assert "hang-timeout" in supervisor
    assert any(run.quarantined for run in metrics)
    assert any(stall.attempt > 0 for stall in stalls)
    assert any(stall.seconds >= 0.2 for stall in stalls)
    assert any(journal.write_errors for journal in journals)
