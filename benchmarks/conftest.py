"""Benchmark fixtures: one paper-scale study run shared by every bench.

Scales (documented in EXPERIMENTS.md): population 1:1024, wild honeypots
1:64, attacks 1:16, telescope sources 1:8192 (Telnet) / 1:64 (rest),
telescope packets 1:16384.  ``test_claims.py`` checks every paper claim
against this study's artifacts; the ablation and extension benches time
their own partial pipelines and print paper-vs-measured blocks
(:func:`compare`).  The study benchmark under ``bench/`` times the whole
study.

The pipeline run goes through the phase engine's shared cache, so ablation
benches that re-run partial pipelines with the same config reuse the
world/scan artifacts instead of rebuilding them; the per-phase breakdown
(wall time, cache hits, items/sec) is printed at the end of the session.
"""

from __future__ import annotations

import pytest

from repro import Study, StudyConfig
from repro.core.engine import default_cache


@pytest.fixture(scope="session")
def study(paper_study):
    """The full paper-scale reproduction's results."""
    return paper_study.results


@pytest.fixture(scope="session")
def paper_study():
    """The full paper-scale :class:`~repro.Study`, run once per session."""
    instance = Study(StudyConfig.paper_scale(seed=7))
    instance.run()
    yield instance
    # Session teardown: the per-phase breakdown of the shared pipeline run.
    stats = default_cache().stats
    print()
    print("=== engine phase metrics (paper-scale pipeline) ===")
    print(instance.metrics.render())
    print(f"shared phase cache: {stats.hits} hits / "
          f"{stats.misses} misses / {stats.stores} stores")


def compare(title, rows):
    """Print a paper-vs-measured block under the benchmark output.

    ``rows`` are (label, paper value, measured value[, note]) tuples; the
    scale divisor is part of the label so readers can sanity-check.
    """
    print()
    print(f"=== {title} ===")
    width = max(len(str(row[0])) for row in rows)
    print(f"{'quantity'.ljust(width)}  {'paper':>14}  {'measured':>14}")
    for row in rows:
        label, paper, measured = row[0], row[1], row[2]
        note = f"  ({row[3]})" if len(row) > 3 else ""
        paper_text = f"{paper:,}" if isinstance(paper, int) else str(paper)
        measured_text = (
            f"{measured:,}" if isinstance(measured, int) else str(measured)
        )
        print(f"{str(label).ljust(width)}  {paper_text:>14}  "
              f"{measured_text:>14}{note}")
