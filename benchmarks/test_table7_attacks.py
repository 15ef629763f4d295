"""Table 7 — 200k attack events across the six honeypots in one month.

Regenerates the whole attack month (fresh deployment + scheduler) and
compares per-honeypot/protocol event counts and unique-source splits.
"""

from repro.attacks.plan import PAPER_HONEYPOT_EVENTS, PAPER_HONEYPOT_SOURCES
from repro.attacks.schedule import AttackScheduler
from repro.core.report import render_table7
from repro.honeypots.deployment import HONEYPOT_NAMES, build_deployment
from repro.protocols.base import ProtocolId

from conftest import compare


def test_table7_attack_events(benchmark, study):
    def run_month():
        deployment = build_deployment()
        # A fresh parallel world keeps the session-scoped study intact.
        from repro.internet.population import PopulationBuilder

        population = PopulationBuilder(study.config.population).build()
        deployment.attach(population.internet)
        scheduler = AttackScheduler(
            population.internet, deployment, population, study.config.attacks
        )
        return scheduler.run()

    result = benchmark.pedantic(run_month, rounds=1, iterations=1)
    scale = study.config.attacks.attack_scale
    counts = result.log.count_by_honeypot_protocol()

    rows = []
    for (name, protocol), paper in PAPER_HONEYPOT_EVENTS.items():
        if protocol == ProtocolId.MODBUS:
            continue  # fitted estimate, not a published row
        got = counts.get((name, str(protocol)), 0)
        rows.append((f"{name}/{protocol}", paper, got * scale, f"x{scale}"))
    paper_total = sum(
        paper for (name, protocol), paper in PAPER_HONEYPOT_EVENTS.items()
        if protocol != ProtocolId.MODBUS
    )
    rows.append(("TOTAL events", paper_total, len(result.log) * scale,
                 f"x{scale}"))
    compare("Table 7: attack events (rescaled)", rows)
    print()
    print(render_table7(study))

    # Shape: every published row within 20% after rescaling.
    for (name, protocol), paper in PAPER_HONEYPOT_EVENTS.items():
        if protocol == ProtocolId.MODBUS:
            continue
        got = counts.get((name, str(protocol)), 0) * scale
        assert abs(got - paper) <= max(10 * scale, 0.2 * paper), (name, protocol)

    # Unique source totals track the published splits.
    scanning = sum(c[0] for c in PAPER_HONEYPOT_SOURCES.values())
    total_sources = len(result.log.unique_sources())
    paper_sources = scanning + sum(
        c[1] + c[2] for c in PAPER_HONEYPOT_SOURCES.values()
    )
    assert abs(total_sources * scale - paper_sources) < 0.25 * paper_sources
