"""Tests for the fidelity scorer and the paper-claim registry."""

import os
import re
from types import SimpleNamespace

import pytest

from repro import Study, StudyConfig
from repro.core.fidelity import (
    FidelityReport,
    FidelityRow,
    claim_registry,
    score_study,
)
from repro.core.validate import (
    InvariantRegistry,
    default_registry,
    run_validation,
)
from repro.protocols.base import ProtocolId

_DESIGN = os.path.join(os.path.dirname(__file__), os.pardir, "DESIGN.md")


class TestFidelityRow:
    def test_relative_error(self):
        row = FidelityRow("T5", "x", paper=100, measured=110)
        assert row.relative_error == pytest.approx(0.10)

    def test_zero_paper(self):
        assert FidelityRow("T5", "x", 0, 0).relative_error == 0.0
        assert FidelityRow("T5", "x", 0, 5).relative_error == float("inf")

    def test_holds_uses_bound_else_aggregate(self):
        assert FidelityRow("T7", "x", 100, 140, bound=40).holds
        assert not FidelityRow("T7", "x", 100, 141, bound=40).holds
        assert FidelityRow("T5", "x", 100, 124).holds
        assert not FidelityRow("T5", "x", 100, 125).holds
        assert FidelityRow("T5", "x", 10, 500, floor_dominated=True).holds


class TestFidelityReport:
    def _report(self):
        report = FidelityReport()
        report.add("T5", "a", 100, 105)
        report.add("T5", "b", 100, 90)
        report.add("T6", "floored", 12, 256, scale=256)  # floor-dominated
        return report

    def test_floor_rows_marked_and_excluded(self):
        report = self._report()
        floored = [row for row in report.rows if row.floor_dominated]
        assert len(floored) == 1
        # Aggregates skip the floor row by default.
        assert report.mean_relative_error() == pytest.approx(0.075)
        assert report.mean_relative_error(include_floor_dominated=True) > 1.0

    def test_experiment_filter(self):
        report = self._report()
        assert len(report.for_experiment("T5")) == 2
        assert report.max_relative_error("T5") == pytest.approx(0.10)
        assert report.max_relative_error(include_floor_dominated=True) > 1.0

    def test_render(self):
        text = self._report().render()
        assert "floored" in text and "(floor)" in text
        assert "mean relative error" in text


class TestStudyFidelity:
    def test_quick_study_scores_well(self, quick_study):
        report = score_study(quick_study)
        assert len(report.rows) > 60
        # Every experiment family is represented.
        experiments = {row.experiment for row in report.rows}
        assert {"T4", "T5", "T6", "T7", "T8", "F9", "S5.3"} <= experiments

    @pytest.mark.parametrize("seed", [7, 23])
    def test_value_claims_hold_at_quick_scale(self, seed):
        # Every value row within its claim's tolerance, and the aggregate
        # (mean < 5%, max < 25% over non-floor rows), even at quick scale.
        registry = InvariantRegistry()
        for claim in claim_registry().invariants():
            if claim.name.endswith(".values"):
                registry.register(claim)
        assert Study(StudyConfig.quick(seed=seed)).validate(registry) == []

    def test_headline_numbers_tight(self, quick_study):
        report = score_study(quick_study)
        by_quantity = {row.quantity: row for row in report.rows}
        assert by_quantity["total misconfigured"].relative_error < 0.05
        assert by_quantity["infected misconfigured total"].relative_error < 0.10

    def test_render_is_complete(self, quick_study):
        text = score_study(quick_study).render()
        assert "exposed telnet" in text
        assert "multistage attacks" in text


class _DoctoredEngine:
    """An engine that serves replacement artifacts over a real engine's."""

    def __init__(self, engine, **artifacts):
        self._engine = engine
        self._artifacts = artifacts

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def artifact(self, name):
        if name in self._artifacts:
            return self._artifacts[name]
        return self._engine.artifact(name)


class TestClaimRegistry:
    def test_names_unique_and_selectable(self):
        names = [claim.name for claim in claim_registry().invariants()]
        assert len(names) == len(set(names))
        # An experiment id, a dot, a lower-case slug: a valid `pytest -k`
        # identifier that never spells a -k keyword.
        pattern = re.compile(r"^(ALL|[TFS]\d+(\.\d+)?)\.[a-z0-9-]+$")
        assert [name for name in names if not pattern.match(name)] == []

    def test_every_design_experiment_has_a_claim(self):
        with open(_DESIGN, encoding="utf-8") as handle:
            ids = re.findall(r"^\| (T\d+|F\d+|§\d+\.\d+) \|", handle.read(),
                             flags=re.MULTILINE)
        assert len(ids) == 18
        prefixes = {claim.name.rsplit(".", 1)[0]
                    for claim in claim_registry().invariants()}
        assert [i for i in ids if i.replace("§", "S") not in prefixes] == []

    def test_validate_keeps_the_structural_registry(self):
        assert len(default_registry()) == 7
        structural = {inv.name for inv in default_registry().invariants()}
        claims = {claim.name for claim in claim_registry().invariants()}
        assert not structural & claims

    def _violations(self, claim_name, **artifacts):
        study = Study(StudyConfig.quick(seed=7))
        study.engine.ensure("zmap_db", "sonar_db", "shodan_db")
        registry = InvariantRegistry()
        registry.register(next(claim for claim in claim_registry().invariants()
                               if claim.name == claim_name))
        return run_validation(_DoctoredEngine(study.engine, **artifacts),
                              registry)

    @staticmethod
    def _counts(database, changes):
        """A stand-in database whose per-protocol counts are ``changes``
        over ``database``'s."""
        counts = {**database.counts_by_protocol(), **changes}
        return SimpleNamespace(counts_by_protocol=lambda: counts)

    def test_doctored_value_names_claim_paper_and_measured(self, quick_study):
        scale = quick_study.config.population.scale
        zmap = quick_study.zmap_db.counts_by_protocol()
        doubled = 2 * zmap[ProtocolId.TELNET]
        [violation] = self._violations(
            "T4.values", zmap_db=self._counts(
                quick_study.zmap_db, {ProtocolId.TELNET: doubled}),
        )
        assert violation.invariant == "T4.values"
        assert "exposed telnet: paper 7,096,465" in violation.message
        assert f"measured {doubled * scale:,}" in violation.message

    def test_doctored_rank_names_claim_paper_and_measured(self, quick_study):
        zmap = quick_study.zmap_db.counts_by_protocol()
        swapped = self._counts(quick_study.zmap_db, {
            ProtocolId.AMQP: zmap[ProtocolId.TELNET],
            ProtocolId.TELNET: zmap[ProtocolId.AMQP],
        })
        [violation] = self._violations("T4.zmap-order", zmap_db=swapped)
        assert violation.invariant == "T4.zmap-order"
        assert violation.message.startswith("paper: ZMap counts ascend amqp")
        assert f"amqp {zmap[ProtocolId.TELNET]}" in violation.message

    def test_doctored_inequality_names_claim_paper_and_measured(
        self, quick_study
    ):
        telnet = quick_study.zmap_db.counts_by_protocol()[ProtocolId.TELNET]
        shodan = self._counts(quick_study.shodan_db,
                              {ProtocolId.TELNET: telnet})
        [violation] = self._violations("T4.shodan-telnet", shodan_db=shodan)
        assert violation.invariant == "T4.shodan-telnet"
        assert "paper: Shodan sees < 10%" in violation.message
        assert f"measured: shodan {telnet}, zmap {telnet}" in violation.message
