"""Resume smoke: a resumed ``repro run`` replays every plane's journal.

Runs ``repro run --quick`` twice over one cache directory, cold and then
with ``--resume``, with the phase cache off so every phase really runs
and each measurement plane has to go through its task journal.  The
resumed run must store no task on any plane — our ZMap scan, the Sonar
and Shodan sweeps, the honeypot month and the telescope — and must
reproduce the cold run's plane artifacts (``chaos.artifact_digests``)
and the providers' dataset bytes.  The journal accounting and the
wall-time split are printed for the bench trail.

A second seed then runs over the same cache directory, as a multi-seed
shell loop (``for s in 7 23; do repro run --seed $s --cache-dir D
--resume; done``) would: its first ``--resume`` run must replay nothing
of seed 7's journals, since they are partitioned by config fingerprint,
and its second must replay everything of its own.
"""

from __future__ import annotations

import hashlib
import io
import json

from conftest import compare

import repro.cli as cli
from repro.core.chaos import artifact_digests

#: Every plane that runs supervised, journaled tasks in a full study.
_PLANES = {"scan", "sonar", "shodan", "attacks", "telescope"}


def _run(monkeypatch, cache_dir, metrics_path, *extra):
    """One in-process ``repro run``; returns (study, metrics document)."""
    built = []
    make_study = cli._study

    def capture(args):
        built.append(make_study(args))
        return built[-1]

    monkeypatch.setattr(cli, "_study", capture)
    code = cli.main(
        ["run", "--quick", "--no-cache", "--cache-dir", str(cache_dir),
         "--metrics-json", str(metrics_path), *extra],
        out=io.StringIO(),
    )
    assert code == cli.EXIT_OK
    return built[0], json.loads(metrics_path.read_text())


def _provider_digests(results):
    return {
        name: hashlib.sha256(
            getattr(results, name).to_jsonl().encode("utf-8")
        ).hexdigest()
        for name in ("sonar_db", "shodan_db")
    }


def _journals(metrics):
    journals = {row["plane"]: row for row in metrics["journals"]}
    assert set(journals) == _PLANES
    return journals


def _assert_replayed(cold, resumed, metrics):
    """The resumed run stored nothing and reproduced the cold bytes."""
    for plane, row in _journals(metrics).items():
        assert row["stores"] == 0, plane
        assert row["hits"] > 0, plane
        assert row["quarantined"] == 0, plane
    assert artifact_digests(resumed.results) == artifact_digests(cold.results)
    assert _provider_digests(resumed.results) == _provider_digests(
        cold.results
    )


def _report(seed, cold_metrics, metrics):
    cold_journals = _journals(cold_metrics)
    journals = _journals(metrics)
    compare(f"resume smoke (quick world, seed {seed})", [
        (f"{plane} tasks replayed", cold_journals[plane]["stores"],
         journals[plane]["hits"], "cold stores vs resumed hits")
        for plane in sorted(_PLANES)
    ] + [
        ("wall seconds", round(cold_metrics["wall_seconds"], 2),
         round(metrics["wall_seconds"], 2), "cold vs resumed"),
    ])


def test_resumed_run_replays_every_plane(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    cold, cold_metrics = _run(monkeypatch, cache_dir, tmp_path / "cold.json")
    resumed, metrics = _run(
        monkeypatch, cache_dir, tmp_path / "resumed.json", "--resume"
    )
    _assert_replayed(cold, resumed, metrics)
    _report(7, cold_metrics, metrics)

    # Seed 23 shares seed 7's cache directory.  Its first run already
    # resumes, as every pass of the shell loop does, and must find none
    # of seed 7's entries under its own fingerprint.
    other, other_cold_metrics = _run(
        monkeypatch, cache_dir, tmp_path / "cold23.json",
        "--seed", "23", "--resume",
    )
    for plane, row in _journals(other_cold_metrics).items():
        assert row["hits"] == 0, plane
        assert row["stores"] > 0, plane
    assert artifact_digests(other.results) != artifact_digests(cold.results)
    other_resumed, other_metrics = _run(
        monkeypatch, cache_dir, tmp_path / "resumed23.json",
        "--seed", "23", "--resume",
    )
    _assert_replayed(other, other_resumed, other_metrics)
    _report(23, other_cold_metrics, other_metrics)
