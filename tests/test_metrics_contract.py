"""The metrics surface pinned as text: ``to_json`` and ``render``.

A :class:`~repro.core.metrics.StudyMetrics` built from fixed rows must
print exactly the strings below.  They were captured before the executor
rows were folded into :class:`~repro.core.tasks.ExecutorStats`, so any
drift in ``--metrics-json`` or the terminal table shows up here.  The
fixture covers a zero-second batch (no rate) and a batch that ran no
tasks but carries supervisor events (no executor row, supervisor rows
kept).
"""

from __future__ import annotations

from repro.core.metrics import PhaseMetric, StudyMetrics
from repro.core.tasks import ChunkTiming, ExecutorStats, SupervisorEvent


def _metrics() -> StudyMetrics:
    metrics = StudyMetrics()
    metrics.record(PhaseMetric("world", "world", 0.25, items=1200))
    metrics.record(PhaseMetric("zmap", "scan", 0.5, cache_hit=True,
                               disk_hit=True, items=300))
    metrics.record(PhaseMetric("attacks", "attacks", 0.0, items=7,
                               status="degraded"))
    metrics.record_executor("scan", ExecutorStats(
        kind="process", workers=2, tasks=12, seconds=0.4,
        chunks=[
            ChunkTiming(chunk=0, tasks=6, seconds=0.1234567, worker=101),
            ChunkTiming(chunk=1, tasks=6, seconds=0.2, worker=102),
        ],
        supervisor=[SupervisorEvent(
            action="pool-restart", reason="worker-crash",
            generation=0, requeued=5,
        )],
    ))
    # A zero-second batch: the executor row has no rate.
    metrics.record_executor("telescope", ExecutorStats(
        kind="serial", workers=1, tasks=3, seconds=0.0,
    ))
    # Supervisor events but no tasks: no executor row, two event rows.
    metrics.record_executor("attacks", ExecutorStats(
        kind="serial", workers=2, tasks=0, seconds=0.0,
        supervisor=[
            SupervisorEvent(action="pool-restart", reason="hang-timeout",
                            generation=0, requeued=9),
            SupervisorEvent(action="downgrade", reason="restart-budget",
                            generation=1, requeued=9),
        ],
    ))
    return metrics


EXPECTED_RENDER = """\
phase              group         seconds  cache        items      items/s
-------------------------------------------------------------------------
world              world           0.250   miss        1,200        4,800
zmap               scan            0.500   disk          300          600
attacks            attacks         0.000 DEGRADED            7            -
total 0.750s over 3 phases (1 cached)
executors: scan process×2 (12 tasks, 30 tasks/s, 2 chunks); telescope serial×1 (3 tasks)
supervisor: scan pool-restart (worker-crash, gen 0, 5 requeued); attacks pool-restart (hang-timeout, gen 0, 9 requeued); attacks downgrade (restart-budget, gen 1, 9 requeued)
degraded phases (study continued without them): attacks"""


EXPECTED_JSON = """\
{
  "wall_seconds": 0.75,
  "cache_hits": 1,
  "cache_misses": 2,
  "degraded": [
    "attacks"
  ],
  "group_seconds": {
    "world": 0.25,
    "scan": 0.5,
    "attacks": 0.0
  },
  "journal_write_errors": 0,
  "phases": [
    {
      "phase": "world",
      "group": "world",
      "seconds": 0.25,
      "cache_hit": false,
      "disk_hit": false,
      "items": 1200,
      "items_per_second": 4800.0,
      "status": "ok"
    },
    {
      "phase": "zmap",
      "group": "scan",
      "seconds": 0.5,
      "cache_hit": true,
      "disk_hit": true,
      "items": 300,
      "items_per_second": 600.0,
      "status": "ok"
    },
    {
      "phase": "attacks",
      "group": "attacks",
      "seconds": 0.0,
      "cache_hit": false,
      "disk_hit": false,
      "items": 7,
      "items_per_second": null,
      "status": "degraded"
    }
  ],
  "shards": [],
  "tasks": [],
  "journals": [],
  "quarantined": [],
  "stalls": [],
  "stores": [],
  "operators": [],
  "task_executors": [
    {
      "plane": "scan",
      "kind": "process",
      "workers": 2,
      "tasks": 12,
      "seconds": 0.4,
      "tasks_per_second": 30.0,
      "chunks": [
        {
          "chunk": 0,
          "tasks": 6,
          "seconds": 0.123457,
          "worker": 101
        },
        {
          "chunk": 1,
          "tasks": 6,
          "seconds": 0.2,
          "worker": 102
        }
      ]
    },
    {
      "plane": "telescope",
      "kind": "serial",
      "workers": 1,
      "tasks": 3,
      "seconds": 0.0,
      "tasks_per_second": null,
      "chunks": []
    }
  ],
  "supervisor": [
    {
      "plane": "scan",
      "action": "pool-restart",
      "reason": "worker-crash",
      "generation": 0,
      "requeued": 5
    },
    {
      "plane": "attacks",
      "action": "pool-restart",
      "reason": "hang-timeout",
      "generation": 0,
      "requeued": 9
    },
    {
      "plane": "attacks",
      "action": "downgrade",
      "reason": "restart-budget",
      "generation": 1,
      "requeued": 9
    }
  ],
  "bus": null
}"""


def test_to_json_is_pinned():
    assert _metrics().to_json() == EXPECTED_JSON


def test_render_is_pinned():
    assert _metrics().render() == EXPECTED_RENDER
