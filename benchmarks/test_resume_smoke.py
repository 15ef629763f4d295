"""Resume smoke: a resumed ``repro run`` replays every plane's journal.

Runs ``repro run --quick`` twice over one cache directory, cold and then
with ``--resume``, with the phase cache off so every phase really runs
and each measurement plane has to go through its task journal.  The
resumed run must store no task on any plane — our ZMap scan, the Sonar
and Shodan sweeps, the honeypot month and the telescope — and must
reproduce the cold run's plane artifacts (``chaos.artifact_digests``)
and the providers' dataset bytes.  The journal accounting and the
wall-time split are printed for the bench trail.
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


def test_resumed_run_replays_every_plane(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    cold, cold_metrics = _run(monkeypatch, cache_dir, tmp_path / "cold.json")
    resumed, metrics = _run(
        monkeypatch, cache_dir, tmp_path / "resumed.json", "--resume"
    )

    journals = {row["plane"]: row for row in metrics["journals"]}
    assert set(journals) == _PLANES
    for plane, row in journals.items():
        assert row["stores"] == 0, plane
        assert row["hits"] > 0, plane
        assert row["quarantined"] == 0, plane
    assert artifact_digests(resumed.results) == artifact_digests(cold.results)
    assert _provider_digests(resumed.results) == _provider_digests(
        cold.results
    )

    cold_journals = {row["plane"]: row for row in cold_metrics["journals"]}
    compare("resume smoke (quick world, seed 7)", [
        (f"{plane} tasks replayed", cold_journals[plane]["stores"],
         journals[plane]["hits"], "cold stores vs resumed hits")
        for plane in sorted(_PLANES)
    ] + [
        ("wall seconds", round(cold_metrics["wall_seconds"], 2),
         round(metrics["wall_seconds"], 2), "cold vs resumed"),
    ])
