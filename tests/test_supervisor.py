"""The pool supervisor: crash recovery, hang watchdog, downgrade ladder.

The scenarios drive the real attack and telescope planes through
``executor="process"`` with ``worker.crash`` / ``worker.hang`` fault
rules armed, and assert the supervisor's contract: pools are rebuilt,
only unfinished tasks are requeued, output stays byte-identical to the
fault-free serial run, and when the restart budget runs out the batch
downgrades to the serial rung (where worker sites cannot fire, so the
ladder terminates).
"""

from __future__ import annotations

import pytest

from repro.core import faults, tasks
from repro.core.faults import DEFAULT_HANG_DELAY, FaultPlan
from repro.core.metrics import StudyMetrics
from repro.core.tasks import (
    ExecutorStats,
    SupervisorEvent,
    TaskJournal,
    TaskPlan,
    TaskRef,
    run_tasks,
)
from repro.net.errors import ConfigError
from tests.test_process_pool import (
    _capture_fingerprint,
    _run_month,
    _schedule_fingerprint,
    _telescope,
)


# ---------------------------------------------------------------------------
# Crash recovery: rebuilt pools, requeued tasks, byte-identical output
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    def test_worker_crashes_survived_byte_identically(self):
        baseline, deployment, _ = _run_month(7)
        expected = _schedule_fingerprint(baseline, deployment)

        plan = FaultPlan.parse("worker.crash@attacks:0.01", seed=11)
        with faults.injected(plan), tasks.pool_supervision(restart_budget=10):
            result, faulted, scheduler = _run_month(
                7, workers=2, executor="process"
            )

        stats = scheduler.executor_stats
        assert stats.restarts >= 1
        assert stats.downgrades == 0
        assert stats.kind == "process"
        for event in stats.supervisor:
            assert event.action == "pool-restart"
            assert event.reason == "worker-crash"
            assert 0 < event.requeued <= 180
        assert _schedule_fingerprint(result, faulted) == expected

    def test_restart_budget_exhaustion_downgrades_to_serial(self):
        baseline, deployment, _ = _run_month(7)
        expected = _schedule_fingerprint(baseline, deployment)

        # Rate 1.0: every generation's first task kills its worker, so no
        # chunk ever completes — exactly ``budget`` rebuilds, then the
        # downgrade hands the full batch to the serial rung, where the
        # worker sites are inert and the batch finishes.
        plan = FaultPlan.parse("worker.crash@attacks:1.0", seed=3)
        with faults.injected(plan), tasks.pool_supervision(restart_budget=2):
            result, faulted, scheduler = _run_month(
                7, workers=2, executor="process"
            )

        stats = scheduler.executor_stats
        assert [(e.action, e.reason) for e in stats.supervisor] == [
            ("pool-restart", "worker-crash"),
            ("pool-restart", "worker-crash"),
            ("downgrade", "restart-budget"),
        ]
        assert [e.generation for e in stats.supervisor] == [0, 1, 2]
        assert all(e.requeued == 180 for e in stats.supervisor)
        assert stats.restarts == 2
        assert stats.downgrades == 1
        assert stats.kind == "serial"
        assert _schedule_fingerprint(result, faulted) == expected


# ---------------------------------------------------------------------------
# Hang watchdog: no-progress timeout, pool teardown, downgrade
# ---------------------------------------------------------------------------

class TestHangWatchdog:
    def test_hang_detected_and_downgraded_byte_identically(self):
        expected = _capture_fingerprint(_telescope(7).capture_month())

        # Every worker task sleeps DEFAULT_HANG_DELAY (30s) — far past
        # the 1s watchdog window — so each generation is torn down with
        # zero progress and the batch lands on the serial rung.
        plan = FaultPlan.parse("worker.hang@telescope:1.0", seed=5)
        with faults.injected(plan), tasks.pool_supervision(
            restart_budget=1, hang_timeout=1.0
        ):
            shell = _telescope(7, workers=2, executor="process")
            capture = shell.capture_month()

        stats = shell.executor_stats
        assert [(e.action, e.reason) for e in stats.supervisor] == [
            ("pool-restart", "hang-timeout"),
            ("downgrade", "restart-budget"),
        ]
        assert stats.restarts == 1
        assert stats.downgrades == 1
        assert stats.kind == "serial"
        assert _capture_fingerprint(capture) == expected


# ---------------------------------------------------------------------------
# Supervisor events on the metrics surface
# ---------------------------------------------------------------------------

class TestSupervisorMetrics:
    def test_record_executor_folds_events_even_without_tasks(self):
        stats = ExecutorStats()
        stats.supervisor.append(SupervisorEvent(
            action="pool-restart", reason="worker-crash",
            generation=0, requeued=42,
        ))
        metrics = StudyMetrics()
        metrics.record_executor("attacks", stats)

        assert len(metrics.supervisor) == 1
        row = metrics.supervisor[0]
        assert (row.plane, row.action, row.reason) == (
            "attacks", "pool-restart", "worker-crash"
        )
        assert (row.generation, row.requeued) == (0, 42)
        payload = metrics.to_dict()
        assert payload["supervisor"] == [row.to_dict()]
        # A replayed-from-journal plane still surfaces its interventions.
        assert not any(
            entry["plane"] == "attacks"
            for entry in payload["task_executors"]
        )

    def test_executor_stats_counts_actions(self):
        stats = ExecutorStats()
        stats.supervisor.extend([
            SupervisorEvent("pool-restart", "worker-crash", 0, 10),
            SupervisorEvent("pool-restart", "hang-timeout", 1, 4),
            SupervisorEvent("downgrade", "restart-budget", 2, 4),
        ])
        assert stats.restarts == 2
        assert stats.downgrades == 1
        assert [e.to_dict()["reason"] for e in stats.supervisor] == [
            "worker-crash", "hang-timeout", "restart-budget",
        ]


# ---------------------------------------------------------------------------
# Worker fault sites in the grammar
# ---------------------------------------------------------------------------

class TestWorkerFaultGrammar:
    def test_plane_scoped_rules_parse_and_describe(self):
        plan = FaultPlan.parse(
            "worker.crash@attacks:0.5,worker.hang@telescope:0.25:transient:7",
            seed=1,
        )
        assert plan.rules["worker.crash"].plane == "attacks"
        assert plan.rules["worker.hang"].plane == "telescope"
        assert plan.rules["worker.hang"].delay == 7.0
        assert "worker.crash@attacks" in plan.describe()

    def test_hang_rule_defaults_to_hang_delay(self):
        plan = FaultPlan.parse("worker.hang:0.1", seed=1)
        assert plan.rules["worker.hang"].delay == DEFAULT_HANG_DELAY

    def test_plane_scope_filters_verdicts(self):
        plan = FaultPlan.parse("worker.crash@attacks:1.0", seed=1)
        injector = faults.FaultInjector(plan)
        assert injector.would_fail("worker.crash", "telescope", "u", 3) is None
        assert injector.would_fail("worker.crash", "attacks", "u", 3) is not None

    def test_one_rule_per_site_even_across_planes(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse(
                "worker.crash@attacks:0.1,worker.crash@telescope:0.1", seed=1
            )


# ---------------------------------------------------------------------------
# KeyboardInterrupt mid-batch: journals stay resumable, byte-identically
# ---------------------------------------------------------------------------

def _call(state, thunk):
    """The ``run`` of the closure plans below: call the task's thunk."""
    return thunk()


def _square_tasks(count, interrupt_at=None, armed=None):
    refs = [TaskRef("demo", "unit", day) for day in range(count)]

    def make(day):
        def thunk():
            if day == interrupt_at and armed and armed.pop():
                raise KeyboardInterrupt
            return day * day
        return thunk

    return refs, TaskPlan(run=_call,
                          payloads=[make(day) for day in range(count)])


class TestKeyboardInterruptResume:
    def test_serial_interrupt_leaves_resumable_journal(self, tmp_path):
        refs, clean = _square_tasks(12)
        expected = run_tasks(clean, 1, refs=refs)

        armed = [True]
        refs, plan = _square_tasks(12, interrupt_at=7, armed=armed)
        journal = TaskJournal(tmp_path / "demo")
        with pytest.raises(KeyboardInterrupt):
            run_tasks(plan, 1, refs=refs, journal=journal)
        assert journal.stores == 7  # tasks 0..6 landed before the interrupt

        resume = TaskJournal(tmp_path / "demo", resume=True)
        refs, plan = _square_tasks(12)  # interrupt disarmed: re-runs clean
        assert run_tasks(plan, 1, refs=refs, journal=resume) == expected
        assert resume.hits == 7
