"""Golden digests of the paper analyses on two quick-scale studies.

Every analysis result is pinned by its canonical
:func:`~repro.stream.operators.snapshot_digest`, which sorts sets and
dict keys away; the rendered tables pin what the digests cannot: row
order, tie order and formatting.  The expected values live in
``analysis_goldens.json`` beside this file.  It is written once, from a
known-good tree, with ``PYTHONPATH=src python tests/test_analysis_goldens.py``
and must not be regenerated to make a change pass.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro import Study, StudyConfig
from repro.analysis.attack_origins import (
    analyze_tor_sources,
    dos_origin_countries,
)
from repro.analysis.recurrence import RecurrenceClassifier
from repro.core.report import (
    render_case_studies,
    render_figure2,
    render_table5,
    render_table10,
)
from repro.stream.operators import snapshot_digest
from repro.telescope.rsdos import detect_rsdos

GOLDENS = Path(__file__).with_name("analysis_goldens.json")
SEEDS = (7, 23)


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def analysis_digests(seed: int) -> Dict[str, str]:
    """Digest of every analysis and rendered table for one quick study."""
    study = Study(StudyConfig.quick(seed))
    study.run_classification()
    study.run_attacks()
    study.run_telescope()
    study.build_intel()
    results = study.results
    log = results.schedule.log
    classifier = RecurrenceClassifier()
    recurring, one_time = classifier.classify(log)
    return {
        "misconfig": snapshot_digest(results.misconfig),
        "device_types": snapshot_digest(results.device_types),
        "countries": snapshot_digest(results.countries),
        "dos_origin_countries": snapshot_digest(
            dos_origin_countries(log, results.geo)
        ),
        "analyze_tor_sources": snapshot_digest(
            analyze_tor_sources(log, results.exonerator)
        ),
        "recurrence": snapshot_digest({
            "patterns": classifier.patterns(log),
            "recurring": recurring,
            "one_time": one_time,
        }),
        "detect_rsdos": snapshot_digest(
            detect_rsdos(results.telescope.writer.iter_rows())
        ),
        "render_table5": _text_digest(render_table5(results)),
        "render_table10": _text_digest(render_table10(results)),
        "render_figure2": _text_digest(render_figure2(results)),
        "render_case_studies": _text_digest(render_case_studies(results)),
    }


def _goldens() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
def test_analysis_digests_match_goldens(seed):
    expected = _goldens()[str(seed)]
    assert analysis_digests(seed) == expected


if __name__ == "__main__":
    GOLDENS.write_text(
        json.dumps(
            {str(seed): analysis_digests(seed) for seed in SEEDS},
            indent=2, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDENS}")
