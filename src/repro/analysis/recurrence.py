"""Recurrence analysis: recurring scanners vs one-time suspicious scans.

"We observe that the IPs from the scanning services scan the Internet
periodically and thus are recurring, unlike suspicious one-time scans"
(Section 4.3.1).  That observation is itself a classifier: a source whose
visits recur across many days behaves like scanning infrastructure even
when its reverse DNS is silent.

:class:`RecurrenceClassifier` implements it over the honeypot event log:
a source is *recurring* when it appears on at least ``min_active_days``
distinct days spanning at least ``min_span_days``.  Tests score it against
the registry's ground truth, and the Figure 5 pipeline can use it as a
second opinion next to the rDNS method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.core.columns import ColumnTable
from repro.core.operator import OperatorBase

__all__ = ["RecurrencePattern", "RecurrenceClassifier", "RecurrenceOperator"]


@dataclass
class RecurrencePattern:
    """Visit pattern of one source."""

    source: int
    active_days: Set[int] = field(default_factory=set)
    total_events: int = 0

    @property
    def n_active_days(self) -> int:
        """Distinct days the source appeared."""
        return len(self.active_days)

    @property
    def span_days(self) -> int:
        """Days between first and last appearance (inclusive)."""
        if not self.active_days:
            return 0
        return max(self.active_days) - min(self.active_days) + 1

    @property
    def regularity(self) -> float:
        """Active-day density over the activity span, in [0, 1]."""
        span = self.span_days
        return self.n_active_days / span if span else 0.0


class RecurrenceClassifier:
    """Labels sources as recurring (scanner-like) or one-time."""

    def __init__(
        self,
        *,
        min_active_days: int = 4,
        min_span_days: int = 10,
        min_regularity: float = 0.25,
    ) -> None:
        self.min_active_days = min_active_days
        self.min_span_days = min_span_days
        self.min_regularity = min_regularity

    def patterns(self, log: ColumnTable) -> Dict[int, RecurrencePattern]:
        """Aggregate visit patterns per source
        (:class:`RecurrenceOperator` fed once)."""
        return self._fold(log).patterns()

    def _fold(self, log: ColumnTable) -> "RecurrenceOperator":
        operator = RecurrenceOperator(self)
        operator.feed(log)
        return operator

    def is_recurring(self, pattern: RecurrencePattern) -> bool:
        """The §4.3.1 heuristic."""
        return (
            pattern.n_active_days >= self.min_active_days
            and pattern.span_days >= self.min_span_days
            and pattern.regularity >= self.min_regularity
        )

    def classify(self, log: ColumnTable) -> Tuple[Set[int], Set[int]]:
        """Split the log's sources into (recurring, one-time)."""
        return self._fold(log).classify()

    def score_against(
        self, log: ColumnTable, truth_scanning: Set[int]
    ) -> Dict[str, float]:
        """Precision/recall of 'recurring' as a scanning-service detector."""
        recurring, _ = self.classify(log)
        if not recurring:
            return {"precision": 0.0, "recall": 0.0}
        true_positives = len(recurring & truth_scanning)
        precision = true_positives / len(recurring)
        seen_truth = truth_scanning & log.unique_sources()
        recall = true_positives / len(seen_truth) if seen_truth else 0.0
        return {"precision": precision, "recall": recall}


class RecurrenceOperator(OperatorBase):
    """The recurrence fold online: one :class:`RecurrencePattern` per
    source; the snapshot holds ``patterns``, ``recurring`` and
    ``one_time``.

    The recurring set is kept current as rows arrive — a verdict depends
    only on the source's active days, so it is re-evaluated when a row
    adds a day — which makes :meth:`recurring_count` O(1).  A verdict
    can flip both ways: a late day can stretch the span until the
    regularity drops below the threshold.
    """

    name = "recurrence"
    plane = "attacks"

    def __init__(
        self, classifier: Optional[RecurrenceClassifier] = None
    ) -> None:
        super().__init__()
        self._classifier = classifier or RecurrenceClassifier()
        self._patterns: Dict[int, RecurrencePattern] = {}
        self._recurring: Set[int] = set()

    def _feed_row(self, row: Any) -> None:
        source = row.source
        pattern = self._patterns.get(source)
        if pattern is None:
            pattern = RecurrencePattern(source=source)
            self._patterns[source] = pattern
        pattern.total_events += 1
        if row.day in pattern.active_days:
            return
        pattern.active_days.add(row.day)
        if self._classifier.is_recurring(pattern):
            self._recurring.add(source)
        else:
            self._recurring.discard(source)

    def recurring_count(self) -> int:
        """Sources classified recurring over the rows fed so far."""
        return len(self._recurring)

    def patterns(self) -> Dict[int, RecurrencePattern]:
        return {
            source: RecurrencePattern(
                source=source,
                active_days=set(pattern.active_days),
                total_events=pattern.total_events,
            )
            for source, pattern in self._patterns.items()
        }

    def classify(self) -> Tuple[Set[int], Set[int]]:
        recurring = set(self._recurring)
        return recurring, set(self._patterns).difference(recurring)

    def snapshot(self) -> Dict[str, Any]:
        recurring, one_time = self.classify()
        return {
            "patterns": self.patterns(),
            "recurring": recurring,
            "one_time": one_time,
        }
