"""Serve smoke: a control-API-driven campaign matches the batch study.

Starts the streaming control server in-process, launches one unpaced
campaign over a 1:4096 world through ``POST /sim/start``, polls
``GET /campaigns/<id>/status`` to completion, reads the SSE tail, and
asserts the chunk-fed final operator snapshot digests equal the digests
of the batch analyses (each operator fed its whole store once) computed
directly over an identically configured study — the end-to-end spelling
of the operators' chunk invariance.  Wall-time split (campaign vs batch
analyses) is printed for the bench trail.
"""

from __future__ import annotations

import json
import time
import urllib.request

from conftest import compare

from repro.analysis.attack_origins import (
    analyze_tor_sources,
    dos_origin_countries,
)
from repro.analysis.country import country_distribution
from repro.analysis.device_type import identify_device_types
from repro.analysis.misconfig import classify_database
from repro.analysis.recurrence import RecurrenceClassifier
from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.internet.population import PopulationConfig
from repro.stream import ControlServer, snapshot_digest
from repro.telescope.rsdos import detect_rsdos

_SCALE = 4096
_SEED = 7


def _smoke_config(request):
    config = StudyConfig.quick(seed=int(request.get("seed", _SEED)))
    config.population = PopulationConfig(
        seed=config.seed, scale=_SCALE, honeypot_scale=_SCALE // 16,
    )
    return config


def _batch_digests():
    """The batch analyses over an identically configured study."""
    study = Study(_smoke_config({}))
    study.run_classification()
    study.run_attacks()
    study.run_telescope()
    study.build_intel()
    results = study.results
    exclude = results.fingerprints.addresses()
    classifier = RecurrenceClassifier()
    recurring, one_time = classifier.classify(results.schedule.log)
    return {
        "misconfig": snapshot_digest(classify_database(
            results.merged_db, exclude_addresses=exclude)),
        "device_type": snapshot_digest(
            identify_device_types(results.merged_db)),
        "country": snapshot_digest(country_distribution(
            results.misconfig.all_addresses(), results.geo)),
        "attack_origins": snapshot_digest({
            "dos_origins": dos_origin_countries(
                results.schedule.log, results.geo),
            "tor": analyze_tor_sources(
                results.schedule.log, results.exonerator),
        }),
        "recurrence": snapshot_digest({
            "patterns": classifier.patterns(results.schedule.log),
            "recurring": recurring,
            "one_time": one_time,
        }),
        "rsdos": snapshot_digest(detect_rsdos(
            results.telescope.writer.iter_rows())),
    }


def test_serve_smoke():
    server = ControlServer(port=0, config_factory=_smoke_config).start()
    base = f"http://127.0.0.1:{server.port}"
    try:
        started_at = time.perf_counter()
        request = urllib.request.Request(
            f"{base}/sim/start", data=b"{}", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            started = json.loads(response.read())
        campaign = started["campaign"]

        deadline = time.monotonic() + 600
        while True:
            assert time.monotonic() < deadline, "campaign never finished"
            with urllib.request.urlopen(
                f"{base}/campaigns/{campaign}/status", timeout=30
            ) as response:
                status = json.loads(response.read())
            if status["state"] in ("done", "failed", "stopped"):
                break
            time.sleep(0.2)
        campaign_seconds = time.perf_counter() - started_at
        assert status["state"] == "done", status

        with urllib.request.urlopen(
            f"{base}/campaigns/{campaign}/tail", timeout=60
        ) as response:
            tail = response.read().decode()
        assert "event: end" in tail

        batch_at = time.perf_counter()
        expected = _batch_digests()
        batch_seconds = time.perf_counter() - batch_at
        assert status["final_digests"] == expected

        compare("serve smoke (1:%d world, seed %d)" % (_SCALE, _SEED), [
            ("events streamed", "-", status["events_streamed"]),
            ("alerts raised", "-", status["alerts_total"]),
            ("digests matched", 6, len(expected)),
            ("campaign wall (s)", "-", round(campaign_seconds, 2)),
            ("batch analyses wall (s)", "-", round(batch_seconds, 2)),
        ])
    finally:
        server.shutdown()
