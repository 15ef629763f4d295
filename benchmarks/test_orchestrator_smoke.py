"""Orchestrator smoke: SIGKILL two 1:4096 campaigns mid-run, recover.

A child process runs ``repro orchestrate`` over two campaigns (seeds 7
and 11) against a durable state directory.  The moment task journals
start landing — the campaigns are provably mid-flight — the parent
SIGKILLs it, exactly the crash the write-ahead ledger exists for.  A
second ``repro orchestrate`` over the same state directory must then
replay the ledger, requeue the killed leases, resume from the task
journals, and finish both campaigns with artifacts byte-identical to
uninterrupted fault-free runs of the same seeds.

A small injected per-task delay slows the child just enough that the
kill always lands mid-campaign; delays are byte-invisible by
construction, so they do not weaken the identity check.

Set ``REPRO_ORCH_METRICS`` to keep the restarted run's
``--metrics-json`` document (final queue plus per-campaign roll-ups);
the CI job uploads it as the run artifact.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

from conftest import compare

import repro
from repro.cli import main
from repro.core.chaos import artifact_digests
from repro.core.study import Study
from repro.orchestrator import CampaignSpec

SEEDS = (7, 11)
SCALE = 4096
HONEYPOT_SCALE = 256


def spec(seed):
    return CampaignSpec(
        seed=seed, scale=SCALE, honeypot_scale=HONEYPOT_SCALE,
        shards=2, workers=2, retries=2, executor="serial",
    )


def test_sigkill_recovery_is_byte_identical(tmp_path):
    oracles = {}
    for seed in SEEDS:
        config = spec(seed).to_config(str(tmp_path / f"oracle-{seed}"))
        oracles[seed] = artifact_digests(Study(config, cache=False).run())

    state_dir = tmp_path / "state"
    journal_root = state_dir / "store" / "journals"
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    argv = [
        "orchestrate",
        "--state-dir", str(state_dir),
        "--seeds", ",".join(str(seed) for seed in SEEDS),
        "--scale", str(SCALE),
        "--honeypot-scale", str(HONEYPOT_SCALE),
        "--shards", "2", "--workers", "2", "--retries", "2",
        "--max-active", "2",
    ]
    child = subprocess.Popen(
        [sys.executable, "-m", "repro"] + argv
        + ["--inject-faults", "deadline:1.0:transient:0.05"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    killed = False
    kill_latency = 0.0
    started = time.monotonic()
    try:
        deadline = started + 300
        while time.monotonic() < deadline and child.poll() is None:
            if any(files for _, _, files in os.walk(str(journal_root))):
                break
            time.sleep(0.01)
        if child.poll() is None:
            kill_latency = time.monotonic() - started
            child.send_signal(signal.SIGKILL)
            killed = True
        child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()

    metrics_path = os.environ.get(
        "REPRO_ORCH_METRICS", str(tmp_path / "orchestrator-metrics.json")
    )
    restarted = time.monotonic()
    code = main(argv + ["--metrics-json", metrics_path])
    recovery_wall = time.monotonic() - restarted

    with open(metrics_path) as handle:
        document = json.load(handle)
    by_seed = {
        doc["spec"]["seed"]: doc for doc in document["campaigns"]
    }
    matched = all(
        by_seed[seed]["digests"] == oracles[seed] for seed in SEEDS
    )

    compare("orchestrator smoke (two 1:4096 campaigns, kill -9 mid-run)", [
        ("child SIGKILLed mid-campaign", True, killed),
        ("kill latency s", "n/a", round(kill_latency, 2)),
        ("restart exit code", 0, code),
        ("lease recoveries", ">= 1", document["queue"]["recovered"]),
        ("dedup resubmits answered", 2, document["queue"]["dedup_hits"]),
        ("ledger records", "n/a", document["queue"]["ledger_records"]),
        ("torn tails quarantined", "n/a",
         document["queue"]["ledger_quarantined"]),
        ("campaigns done", 2,
         len(document["queue"]["campaigns"]["done"])),
        ("artifacts byte-identical", True, matched),
        ("recovery wall s", "n/a", round(recovery_wall, 1)),
    ])

    assert killed, "child finished before the kill; nothing was recovered"
    assert code == 0
    assert document["queue"]["recovered"] >= 1, "no lease was recovered"
    assert len(document["queue"]["campaigns"]["done"]) == 2
    for seed in SEEDS:
        assert by_seed[seed]["state"] == "done", by_seed[seed]
        assert by_seed[seed]["digests"] == oracles[seed], (
            f"seed {seed} diverged after crash recovery"
        )
        assert by_seed[seed]["metrics"]["journal_stores"] >= 0
