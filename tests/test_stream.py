"""Online operators: every analysis is invariant under chunking.

Each batch analysis is its operator fed the whole store once
(DESIGN.md §9), so one property covers the streaming contract: feeding
a plane store's rows split at any boundaries — one row at a time, a
prime size, the whole log at once, or drawn irregular chunks — finalizes
to the digest of the batch entry point.  The values themselves are
pinned by ``test_analysis_goldens.py``.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Study, StudyConfig
from repro.analysis.attack_origins import (
    analyze_tor_sources,
    dos_origin_countries,
)
from repro.analysis.country import country_distribution_of
from repro.analysis.device_type import identify_device_types
from repro.analysis.misconfig import classify_database
from repro.analysis.recurrence import RecurrenceClassifier
from repro.net.errors import ServeError
from repro.stream import (
    AttackOriginsOperator,
    CountryOperator,
    DeviceTypeOperator,
    MisconfigOperator,
    Operator,
    RecurrenceOperator,
    RsdosOperator,
    default_operators,
    snapshot_digest,
)
from repro.stream.service import plane_rows
from repro.telescope.rsdos import detect_rsdos

BOTH_SEEDS = pytest.mark.parametrize("seed", [7, 1234])

#: Fixed chunk sizes every operator is checked at: degenerate single-row
#: feeding, a prime that never divides the row count, and one chunk that
#: swallows the whole log.
CHUNK_SIZES = (1, 97, 10**9)


@functools.lru_cache(maxsize=None)
def study_results(seed: int):
    """Quick-scale finished study per seed (phase cache makes this cheap)."""
    study = Study(StudyConfig.quick(seed=seed))
    study.run_classification()
    study.run_attacks()
    study.run_telescope()
    study.build_intel()
    return study.results


@functools.lru_cache(maxsize=None)
def rows_of(seed: int, plane: str):
    return tuple(plane_rows(study_results(seed), plane))


def _recurrence(log):
    classifier = RecurrenceClassifier()
    recurring, one_time = classifier.classify(log)
    return {
        "patterns": classifier.patterns(log),
        "recurring": recurring,
        "one_time": one_time,
    }


#: Operator name → its batch entry points over the finished study, wired
#: like :func:`~repro.stream.service.default_operators`.
BATCH = {
    "misconfig": lambda results: classify_database(
        results.merged_db, exclude_addresses=results.fingerprints.addresses()
    ),
    "device_type": lambda results: identify_device_types(results.merged_db),
    "country": lambda results: results.countries,
    "attack_origins": lambda results: {
        "dos_origins": dos_origin_countries(
            results.schedule.log, results.geo
        ),
        "tor": analyze_tor_sources(results.schedule.log, results.exonerator),
    },
    "recurrence": lambda results: _recurrence(results.schedule.log),
    "rsdos": lambda results: detect_rsdos(results.telescope.writer.records()),
}


@functools.lru_cache(maxsize=None)
def batch_digest(name: str, seed: int) -> str:
    return snapshot_digest(BATCH[name](study_results(seed)))


def feed_in_chunks(operator: Operator, rows, sizes) -> None:
    """Feed ``rows`` in chunks whose sizes cycle through ``sizes``."""
    start = index = 0
    while start < len(rows):
        size = sizes[index % len(sizes)]
        operator.feed(rows[start:start + size])
        start += size
        index += 1


def assert_chunk_invariant(name: str, seed: int, sizes) -> None:
    """The stock operator ``name``, fed in chunks, digests like its batch
    entry point."""
    results = study_results(seed)
    (operator,) = (
        candidate for candidate in default_operators(results)
        if candidate.name == name
    )
    feed_in_chunks(operator, rows_of(seed, operator.plane), sizes)
    assert snapshot_digest(operator.finalize()) == batch_digest(name, seed)


def chunk_invariance(name: str):
    """The chunk-invariance property of one stock operator, on both seeds."""

    @BOTH_SEEDS
    @settings(max_examples=8, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=5000),
                          min_size=1, max_size=12))
    def test(seed, sizes):
        assert_chunk_invariant(name, seed, sizes)

    return test


test_misconfig_any_boundaries = chunk_invariance("misconfig")
test_device_type_any_boundaries = chunk_invariance("device_type")
test_country_any_boundaries = chunk_invariance("country")
test_attack_origins_any_boundaries = chunk_invariance("attack_origins")
test_recurrence_any_boundaries = chunk_invariance("recurrence")
test_rsdos_any_boundaries = chunk_invariance("rsdos")


@BOTH_SEEDS
@pytest.mark.parametrize("size", CHUNK_SIZES)
class TestChunkedEqualsBatch:
    """The property at the fixed chunk sizes."""

    def test_misconfig(self, seed, size):
        assert_chunk_invariant("misconfig", seed, [size])

    def test_device_type(self, seed, size):
        assert_chunk_invariant("device_type", seed, [size])

    def test_country_matches_study_artifact(self, seed, size):
        assert_chunk_invariant("country", seed, [size])

    def test_country_unfiltered(self, seed, size):
        results = study_results(seed)
        operator = CountryOperator(results.geo)
        feed_in_chunks(operator, rows_of(seed, "scan"), [size])
        assert operator.snapshot() == country_distribution_of(
            results.merged_db, results.geo
        )

    def test_attack_origins(self, seed, size):
        assert_chunk_invariant("attack_origins", seed, [size])

    def test_recurrence(self, seed, size):
        assert_chunk_invariant("recurrence", seed, [size])

    def test_rsdos(self, seed, size):
        assert_chunk_invariant("rsdos", seed, [size])


# ---------------------------------------------------------------------------
# Lifecycle, protocol, digests
# ---------------------------------------------------------------------------


class TestOperatorLifecycle:
    def test_protocol_conformance(self):
        results = study_results(7)
        for operator in (
            MisconfigOperator(), DeviceTypeOperator(),
            CountryOperator(results.geo),
            AttackOriginsOperator(results.geo), RecurrenceOperator(),
            RsdosOperator(),
        ):
            assert isinstance(operator, Operator)

    def test_feed_counts(self):
        rows = rows_of(7, "scan")
        operator = MisconfigOperator()
        feed_in_chunks(operator, rows, [100])
        assert operator.rows_fed == len(rows)
        assert operator.batches_fed == (len(rows) + 99) // 100
        assert operator.seconds >= 0.0

    def test_finalize_freezes(self):
        operator = RecurrenceOperator()
        final = operator.finalize()
        assert final["patterns"] == {}
        assert operator.finalized
        with pytest.raises(ServeError):
            operator.feed([])

    def test_empty_feed_matches_empty_batch(self):
        operator = RsdosOperator()
        operator.feed([])
        assert operator.snapshot() == []


class TestSnapshotDigest:
    def test_set_order_is_canonicalized(self):
        left = {"sources": {3, 1, 2}}
        right = {"sources": set([2, 3, 1])}
        assert snapshot_digest(left) == snapshot_digest(right)

    def test_different_values_differ(self):
        assert snapshot_digest({"n": 1}) != snapshot_digest({"n": 2})

    def test_dataclasses_and_enums_are_stable(self):
        results = study_results(7)
        report = classify_database(results.merged_db)
        assert snapshot_digest(report) == snapshot_digest(
            classify_database(results.merged_db)
        )
