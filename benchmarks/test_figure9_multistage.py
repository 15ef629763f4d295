"""Figure 9 — multistage attacks detected on honeypots.

Regenerates the multistage detection (multi-protocol sources minus
scanning-service domains) and checks Figure 9's structure: 267 attacks
(scaled), most starting with Telnet/SSH, SMB heavy at step two, S7 at
step three.
"""

from repro.analysis.multistage import detect_multistage
from repro.attacks.plan import PAPER_MULTISTAGE_ATTACKS
from repro.core.report import render_figure9
from repro.protocols.base import ProtocolId

from conftest import compare


def test_figure9_multistage(benchmark, study):
    report = benchmark.pedantic(
        detect_multistage,
        args=(study.schedule.log, study.schedule.rdns),
        rounds=1, iterations=1,
    )
    scale = study.config.attacks.attack_scale

    stages = report.stage_counts()
    rows = [("multistage attacks", PAPER_MULTISTAGE_ATTACKS,
             report.total * scale, f"x{scale}")]
    for index, histogram in enumerate(stages):
        top = sorted(histogram.items(), key=lambda item: -item[1])[:3]
        rows.append((f"step {index + 1} top protocols", "(figure)",
                     ", ".join(f"{p}={c}" for p, c in top)))
    compare("Figure 9: multistage attacks", rows)
    print()
    print(render_figure9(study))

    # Count shape.
    expected = PAPER_MULTISTAGE_ATTACKS / scale
    assert abs(report.total - expected) <= max(2, 0.4 * expected)

    # Detection is exact against ground truth (no scanning-service noise).
    assert set(report.sequences) == study.schedule.multistage_sources

    # Figure 9 structure: Telnet/SSH dominate step one ...
    starts = report.starting_protocols()
    telnet_ssh = starts.get(ProtocolId.TELNET, 0) + starts.get(
        ProtocolId.SSH, 0)
    assert telnet_ssh > 0.5 * sum(starts.values())
    # ... SMB leads step two, and step three is S7-heavy.
    if len(stages) >= 2 and stages[1]:
        top_two = sorted(stages[1], key=stages[1].get, reverse=True)[:2]
        assert ProtocolId.SMB in top_two or ProtocolId.SSH in top_two
    if len(stages) >= 3 and stages[2]:
        assert ProtocolId.S7 in stages[2]
