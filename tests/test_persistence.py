"""Tests for the persistence surfaces: event-log JSONL, scan JSONL,
FlowTuple day files — the paper's 'exported daily and imported into the
database' workflow."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.core.taxonomy import AttackType
from repro.honeypots.events import AttackEvent, EventStore
from repro.protocols.base import ProtocolId
from repro.telescope.flowtuple import decode_flowtuple


_protocols = st.sampled_from(list(ProtocolId))
_types = st.sampled_from(list(AttackType))


def _event(**overrides):
    base = dict(
        honeypot="Cowrie", protocol=ProtocolId.SSH, source=0x05060708,
        day=3, timestamp=3 * 86_400.0 + 17.25,
        attack_type=AttackType.BRUTE_FORCE, actor="mirai",
        summary="2 login attempts", malware_hash="", request_bytes=42,
    )
    base.update(overrides)
    return AttackEvent(**base)


class TestEventJson:
    def test_row_fields(self):
        row = json.loads(_event().to_json())
        assert row["source"] == "5.6.7.8"
        assert row["protocol"] == "ssh"
        assert row["attack_type"] == "brute-force"

    def test_round_trip_single(self):
        event = _event(malware_hash="ab" * 32)
        loaded = AttackEvent.from_json(event.to_json())
        assert loaded == event

    @given(_protocols, _types,
           st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=0, max_value=29),
           st.text(max_size=30))
    def test_round_trip_property(self, protocol, attack_type, source, day,
                                 summary):
        event = _event(protocol=protocol, attack_type=attack_type,
                       source=source, day=day, summary=summary,
                       timestamp=day * 86_400.0)
        assert AttackEvent.from_json(event.to_json()) == event


class TestEventLogJsonl:
    def test_round_trip_preserves_aggregations(self):
        log = EventStore([
            _event(day=0), _event(day=1, source=1),
            _event(day=1, protocol=ProtocolId.TELNET,
                   attack_type=AttackType.MALWARE_DROP,
                   malware_hash="cd" * 32),
        ])
        loaded = EventStore.from_jsonl(log.to_jsonl())
        assert len(loaded) == len(log)
        assert loaded.count_by_day() == log.count_by_day()
        assert loaded.count_by_honeypot_protocol() == (
            log.count_by_honeypot_protocol())
        assert loaded.malware_hashes() == log.malware_hashes()

    def test_empty_log(self):
        assert len(EventStore.from_jsonl("")) == 0
        assert EventStore().to_jsonl() == ""

    def test_blank_lines_skipped(self):
        text = _event().to_json() + "\n\n" + _event(day=9).to_json() + "\n"
        assert len(EventStore.from_jsonl(text)) == 2

    def test_study_log_round_trips(self, quick_study):
        log = quick_study.schedule.log
        loaded = EventStore.from_jsonl(log.to_jsonl())
        assert len(loaded) == len(log)
        assert loaded.unique_sources() == log.unique_sources()
        assert loaded.count_by_type() == log.count_by_type()


class TestScanJsonl:
    def test_study_scan_rows_parse(self, quick_study):
        lines = quick_study.merged_db.to_jsonl().splitlines()
        assert len(lines) == len(quick_study.merged_db)
        for line in lines[:50]:
            row = json.loads(line)
            assert {"ip", "port", "protocol", "banner", "response"} <= set(row)


class TestFlowTupleFiles:
    def test_study_day_files_decode(self, quick_study):
        writer = quick_study.telescope.writer
        day = writer.days()[0]
        lines = list(writer.lines_for_day(day))
        assert lines
        for line in lines[:100]:
            record = decode_flowtuple(line)
            assert record.day == day
