"""The event bus, the store emission hooks, and the campaign service."""

from __future__ import annotations

import time
from itertools import islice
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from repro import Study, StudyConfig
from repro.honeypots.events import EventStore
from repro.net.errors import ConfigError, CursorLagError, ServeError
from repro.scanner.records import ScanDatabase
from repro.stream import (
    Alert,
    CampaignService,
    EventBus,
    MisconfigOperator,
    RecurrenceOperator,
    RingBuffer,
    StreamConfig,
)
from repro.stream.bus import _describe_row
from repro.stream.service import (
    _AlertWatcher,
    default_operators,
    plane_rows,
)
from repro.telescope.flowtuple import FlowTupleWriter
from tests.oracles.alert_watcher import (
    StateWalkingWatcher,
    recurring_sources,
)


class TestRingBuffer:
    def test_append_and_tail(self):
        ring = RingBuffer(capacity=10)
        for value in range(5):
            ring.append(value)
        cursor, items = ring.tail(0)
        assert items == [0, 1, 2, 3, 4]
        assert cursor == 5
        assert ring.total == 5

    def test_cursor_resumes(self):
        ring = RingBuffer(capacity=10)
        ring.extend("abc")
        cursor, _ = ring.tail(0)
        ring.extend("de")
        cursor, items = ring.tail(cursor)
        assert items == ["d", "e"]
        _, nothing = ring.tail(cursor)
        assert nothing == []

    def test_bounded_drops_oldest(self):
        ring = RingBuffer(capacity=3)
        for value in range(10):
            ring.append(value)
        cursor, items = ring.tail(0)
        assert items == [7, 8, 9]  # the retained window
        assert cursor == ring.total == 10

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(capacity=0)

    def test_extend_matches_per_item_append(self):
        batched, reference = RingBuffer(capacity=4), RingBuffer(capacity=4)
        for batch in ([1, 2, 3], [4, 5, 6, 7, 8, 9], [], [10]):
            batched.extend(batch)
            for item in batch:
                reference.append(item)
            assert batched.tail(0) == reference.tail(0)
            assert (batched.total, batched.dropped) == (
                reference.total, reference.dropped
            )


def _lag_oldest(ring, cursor):
    with pytest.raises(CursorLagError) as caught:
        ring.tail(cursor)
    return caught.value.oldest


class TestEventsRingOnRead:
    """Tail payloads built on read equal the payloads built on publish."""

    def test_payloads_and_accounting_match_eager_reference(self, quick_study):
        bus = EventBus()
        capacity = bus.events.capacity
        assert capacity == 1024
        reference = RingBuffer(capacity)
        planes = (
            ("scan", list(quick_study.merged_db.iter_rows())[:700], 300),
            ("attacks", list(quick_study.schedule.log.iter_rows())[:900], 256),
            ("telescope",
             list(islice(quick_study.telescope.writer, 1500)), 1500),
        )
        sim_time = 0.0
        for plane, rows, size in planes:
            for start in range(0, len(rows), size):
                batch = rows[start:start + size]
                sim_time += 1.0 / 3
                bus.publish(plane, batch, sim_time=sim_time)
                # The eager path: payloads built per appended item.
                for row in batch[-capacity:]:
                    payload = _describe_row(row)
                    payload["plane"] = plane
                    payload["sim_time"] = round(sim_time, 3)
                    reference.append(payload)
                assert bus.events.total == reference.total
                assert bus.events.dropped == reference.dropped
                assert bus.events.tail(0) == reference.tail(0)
                middle = reference.total - 5
                assert bus.events.tail(middle) == reference.tail(middle)
        assert bus.events.dropped > 0
        assert _lag_oldest(bus.events, 1) == _lag_oldest(reference, 1)


class TestEventBus:
    def test_publish_feeds_registered_plane_only(self):
        bus = EventBus()
        scan_op = bus.register(MisconfigOperator())
        attack_op = bus.register(RecurrenceOperator())
        bus.publish("attacks", [], sim_time=1.0)
        assert attack_op.batches_fed == 1
        assert scan_op.batches_fed == 0
        assert bus.published == {"attacks": 0}

    def test_events_ring_payloads(self, quick_study):
        bus = EventBus(event_capacity=4)
        rows = list(quick_study.schedule.log.iter_rows())[:6]
        bus.publish("attacks", rows, sim_time=2.5)
        _, items = bus.events.tail(0)
        assert len(items) == 4  # ring keeps the recent window
        assert bus.published["attacks"] == 6
        sample = items[-1]
        assert sample["plane"] == "attacks"
        assert sample["sim_time"] == 2.5
        assert {"honeypot", "source", "day"} <= set(sample)

    def test_alerts(self):
        bus = EventBus()
        alert = bus.alert("attacks", "test", "hello", sim_time=1.0, day=3)
        assert isinstance(alert, Alert)
        _, items = bus.alerts.tail(0)
        assert items == [alert]
        assert alert.to_dict()["kind"] == "test"


class TestStoreTaps:
    """append_batch on each plane store streams onto a tapped bus."""

    def test_scan_database_tap(self, quick_study):
        source_rows = list(quick_study.merged_db.iter_rows())[:5]
        db = ScanDatabase()
        bus = EventBus()
        operator = bus.register(MisconfigOperator())
        bus.tap(db, "scan")
        db.append_batch(
            (r.address, r.port, r.protocol, r.transport, r.banner,
             r.response, r.timestamp, r.source)
            for r in source_rows
        )
        assert bus.published["scan"] == 5
        assert operator.rows_fed == 5
        _, items = bus.events.tail(0)
        assert items[0]["address"] == source_rows[0].address

    def test_event_store_tap(self, quick_study):
        source_rows = list(quick_study.schedule.log.iter_rows())[:4]
        store = EventStore()
        bus = EventBus()
        bus.tap(store, "attacks")
        store.append_batch(
            (r.honeypot, r.protocol, r.source, r.day, r.timestamp,
             r.attack_type, r.actor, r.summary, r.malware_hash,
             r.request_bytes)
            for r in source_rows
        )
        assert bus.published["attacks"] == 4

    def test_flowtuple_writer_tap(self, quick_study):
        records = list(quick_study.telescope.writer.iter_rows())[:8]
        writer = FlowTupleWriter()
        bus = EventBus()
        bus.tap(writer, "telescope")
        writer.append_batch(records)
        assert bus.published["telescope"] == 8

    def test_unsubscribe_stops_the_stream(self, quick_study):
        records = list(quick_study.telescope.writer.iter_rows())[:3]
        writer = FlowTupleWriter()
        bus = EventBus()
        callback = bus.tap(writer, "telescope")
        writer.extend_day(records[0].day, [records[0]])
        writer.unsubscribe(callback)
        writer.append_batch(records)
        assert bus.published["telescope"] == 1

    def test_per_record_paths_never_notify(self, quick_study):
        """add()/extend() stay hot paths — no observer overhead."""
        row = list(quick_study.merged_db.iter_rows())[0]
        db = ScanDatabase()
        bus = EventBus()
        bus.tap(db, "scan")
        db.add(row)
        assert bus.published == {}


def _watched_alerts(watcher_class, operators, plane, batches):
    """Feed ``batches`` to ``operators`` on a bus, running one watcher
    after each batch; returns the alerts it raised."""
    bus = EventBus()
    for operator in operators:
        bus.register(operator)
    service = SimpleNamespace(bus=bus, sim_time=0.0, sim_day=0)
    watcher = watcher_class(service, plane)
    for day, batch in enumerate(batches):
        service.sim_day = day
        bus.publish(plane, batch)
        watcher.after_batch()
    _, alerts = bus.alerts.tail(0)
    return [(a.plane, a.kind, a.message, a.day) for a in alerts]


class _Visit(NamedTuple):
    source: int
    day: int
    attack_type: str = "scan"
    protocol: str = "telnet"


class TestAlertWatcher:
    """The watcher reads counts the operators keep current; every alert
    must equal what walking the whole operator state would raise."""

    @pytest.mark.parametrize("size", [1, 97, 256])
    def test_matches_state_walking_reference(self, quick_study, size):
        for plane in ("attacks", "telescope"):
            rows = list(plane_rows(quick_study, plane))
            batches = [rows[i:i + size] for i in range(0, len(rows), size)]
            alerts = [
                _watched_alerts(
                    watcher,
                    [op for op in default_operators(quick_study)
                     if op.plane == plane],
                    plane, batches,
                )
                for watcher in (_AlertWatcher, StateWalkingWatcher)
            ]
            assert alerts[0] == alerts[1]
            assert alerts[0], plane

    def test_recurrence_flips_back_to_one_time(self):
        """A late visit stretches one source's span until its regularity
        drops below the threshold: the count falls, and the watcher only
        alerts again once it passes its previous high."""
        visits = [_Visit(1, day) for day in range(10)]  # recurring
        visits += [_Visit(1, 60)]  # 11 days over a 61-day span: 0.18
        visits += [_Visit(2, day) for day in range(20, 30)]
        visits += [_Visit(3, day) for day in range(30, 40)]
        operator = RecurrenceOperator()
        counts = []
        for visit in visits:
            operator.feed([visit])
            assert operator.recurring_count() == recurring_sources(operator)
            counts.append(operator.recurring_count())
        assert counts[9] == 1 and counts[10] == 0 and counts[-1] == 2
        batches = [[visit] for visit in visits]
        alerts = [
            _watched_alerts(watcher, [RecurrenceOperator()], "attacks",
                            batches)
            for watcher in (_AlertWatcher, StateWalkingWatcher)
        ]
        assert alerts[0] == alerts[1]
        assert [message for _, _, message, _ in alerts[0]] == [
            "1 source(s) newly classified as recurring scanners (1 total)",
            "1 source(s) newly classified as recurring scanners (2 total)",
        ]


class TestStreamConfig:
    def test_defaults_validate(self):
        StreamConfig().validate()

    def test_rejects_negative_pacing(self):
        with pytest.raises(ConfigError):
            StreamConfig(events_per_second=-1).validate()

    def test_rejects_zero_batch(self):
        with pytest.raises(ConfigError):
            StreamConfig(batch_size=0).validate()


class TestCampaignService:
    @pytest.fixture(scope="class")
    def done_service(self):
        service = CampaignService(StudyConfig.quick(seed=7))
        service.run()
        return service

    def test_runs_to_done(self, done_service):
        assert done_service.state == "done"
        assert done_service.error is None

    def test_snapshots_match_batch(self, done_service):
        assert done_service.verify_against_batch() == []

    def test_final_digests_cover_all_operators(self, done_service):
        digests = done_service.final_digests()
        assert set(digests) == {
            "misconfig", "device_type", "country", "attack_origins",
            "recurrence", "rsdos",
        }
        assert all(len(d) == 64 for d in digests.values())

    def test_status_document(self, done_service):
        status = done_service.status()
        assert status["state"] == "done"
        assert status["seed"] == 7
        planes = status["planes"]
        assert set(planes) == {"scan", "attacks", "telescope"}
        for progress in planes.values():
            assert progress["rows_fed"] == progress["rows_total"] > 0
        assert status["events_streamed"] == sum(
            p["rows_fed"] for p in planes.values()
        )
        assert status["final_digests"]

    def test_phase_hook_saw_phases(self, done_service):
        assert "world" in " ".join(done_service.phases_done).lower() or (
            len(done_service.phases_done) > 0
        )

    def test_operator_metrics_recorded(self, done_service):
        metrics = done_service.study.metrics
        names = {metric.operator for metric in metrics.operators}
        assert {"misconfig", "rsdos"} <= names
        rendered = metrics.render()
        assert "operators:" in rendered
        assert metrics.to_dict()["operators"]

    def test_day_boundary_alerts(self, done_service):
        _, alerts = done_service.bus.alerts.tail(0)
        kinds = {alert.kind for alert in alerts}
        assert "day-close" in kinds
        assert "campaign-done" in kinds

    def test_finalized_operators_refuse_feeding(self, done_service):
        with pytest.raises(ServeError):
            done_service.operator("misconfig").feed([])
        with pytest.raises(ServeError):
            done_service.operator("nope")

    def test_digest_determinism_across_services(self, done_service):
        other = CampaignService(
            StudyConfig.quick(seed=7),
            StreamConfig(batch_size=37),  # different chunking, same bytes
        )
        other.run()
        assert other.final_digests() == done_service.final_digests()

    def test_double_start_raises(self):
        service = CampaignService(StudyConfig.quick(seed=7))
        service.start()
        with pytest.raises(ServeError):
            service.start()
        service.join(timeout=120)
        assert service.finished

    def test_stop_interrupts_paced_stream(self):
        service = CampaignService(
            StudyConfig.quick(seed=7),
            # Slow enough that the stream can't finish before stop():
            # the quick campaign replays thousands of rows.
            StreamConfig(events_per_second=50.0, batch_size=16),
        )
        service.start()
        deadline = time.monotonic() + 120
        while service.state in ("pending", "generating"):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        service.stop()
        service.join(timeout=30)
        assert service.state == "stopped"
        with pytest.raises(ServeError):
            service.final_digests()

    def test_rejects_invalid_stream_config(self):
        with pytest.raises(ConfigError):
            CampaignService(
                StudyConfig.quick(), StreamConfig(batch_size=-4)
            )
