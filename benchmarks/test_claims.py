"""Every paper claim of :func:`repro.core.fidelity.claim_registry`, one case
each, over the session's paper-scale study.

A case ensures the artifacts its claim reads, prints the experiment's
report render where :mod:`repro.core.report` has one (``-s`` shows it),
and fails with the claim's paper-vs-measured message.  Select claims by
id, e.g. ``-k "F6"`` or ``-k "not F6.smb-top"``.
"""

import pytest

from repro.core import report
from repro.core.fidelity import claim_registry, score_study
from repro.core.study import StudyResults

CLAIMS = claim_registry().invariants()

#: Experiment id → its renderer; ``ALL`` prints the whole fidelity table.
_RENDERS = {
    "T4": report.render_table4,
    "T5": report.render_table5,
    "T6": report.render_table6,
    "T7": report.render_table7,
    "T8": report.render_table8,
    "T10": report.render_table10,
    "F2": report.render_figure2,
    "F7": report.render_figure7,
    "F8": report.render_figure8,
    "F9": report.render_figure9,
    "S5.3": report.render_intersection,
    "ALL": lambda results: score_study(results).render(),
}


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.name for c in CLAIMS])
def test_claim(claim, paper_study):
    engine = paper_study.engine
    engine.ensure(*claim.requires)
    render = _RENDERS.get(claim.name.rsplit(".", 1)[0])
    if render is not None:
        print()
        print(render(StudyResults.from_engine(engine)))
    problems = claim.check(engine)
    assert not problems, f"{claim.name}: " + "; ".join(problems)
