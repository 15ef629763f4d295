"""State-walking alert watcher oracle.

The shipping ``repro.stream.service._AlertWatcher`` reads counts the
operators keep current as rows arrive.  This oracle recomputes them from
the whole operator state after every batch — ``len(snapshot())`` for the
RSDoS detector, the §4.3.1 verdict over every source's pattern for the
recurrence fold (the DoS source count was always a set size) — and
raises the same alerts with the same thresholds and texts.
"""

from __future__ import annotations

from repro.analysis.recurrence import RecurrenceClassifier

__all__ = ["StateWalkingWatcher", "recurring_sources"]


def recurring_sources(operator) -> int:
    """Sources a default :class:`RecurrenceClassifier` labels recurring,
    judged afresh from every pattern the operator has folded."""
    classifier = RecurrenceClassifier()
    return sum(
        classifier.is_recurring(pattern)
        for pattern in operator.patterns().values()
    )


class StateWalkingWatcher:
    """Alerts from operator state walked in full after each batch."""

    def __init__(self, service, plane: str) -> None:
        self.service = service
        self.plane = plane
        self._rsdos_seen = 0
        self._recurring_seen = 0
        self._dos_sources_seen = 0

    def after_batch(self) -> None:
        bus = self.service.bus
        sim_time = self.service.sim_time
        day = self.service.sim_day
        for operator in bus.operators(self.plane):
            if operator.name == "rsdos":
                detected = len(operator.snapshot())
                if detected > self._rsdos_seen:
                    bus.alert(
                        self.plane, "rsdos-detected",
                        f"{detected - self._rsdos_seen} new RSDoS "
                        f"victim(s) inferred from backscatter "
                        f"({detected} total)",
                        sim_time=sim_time, day=day,
                    )
                    self._rsdos_seen = detected
            elif operator.name == "recurrence":
                recurring = recurring_sources(operator)
                if recurring > self._recurring_seen:
                    bus.alert(
                        self.plane, "recurring-source",
                        f"{recurring - self._recurring_seen} source(s) "
                        f"newly classified as recurring scanners "
                        f"({recurring} total)",
                        sim_time=sim_time, day=day,
                    )
                    self._recurring_seen = recurring
            elif operator.name == "attack_origins":
                dos_sources = operator.dos_source_count()
                if dos_sources >= self._dos_sources_seen + 25:
                    bus.alert(
                        self.plane, "dos-sources",
                        f"DoS source population grew to {dos_sources}",
                        sim_time=sim_time, day=day,
                    )
                    self._dos_sources_seen = dos_sources
