"""Per-prefetch credit accounting (paper Sec. V-C1).

"Any prefetched line is marked.  If it serves an on-demand access later,
the line earns a positive credit.  If it causes an additional miss, then
it earns a negative credit. ... When an access misses in the cache but
finds its tag in the alternative-reality cache tags, we have a
prefetching-induced miss.  In this case, one negative credit is equally
divided among the prefetched lines currently in the set."

Accounting only observes, so a simulation records the tracker protocol
(``on_prefetch_issued`` / ``on_useful`` / ``on_pollution``) as its
``SimulationResult.credit_log`` and :func:`replay` feeds it to a tracker
afterwards: a cached cell serves any number of trackers.
:class:`CreditTracker` implements the protocol and aggregates credits
per *component* and per *category* (via an optional classifier), which
is exactly what Fig. 13 and Fig. 14 plot.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from repro.engine.compact import CreditLog


@dataclass
class CreditBucket:
    """Credits for one (component, category) combination."""

    issued: int = 0
    positive: float = 0.0
    negative: float = 0.0

    @property
    def credit(self) -> float:
        return self.positive - self.negative

    @property
    def effective_accuracy(self) -> float:
        """Net misses avoided per prefetch issued; can be negative."""
        if self.issued == 0:
            return 0.0
        return self.credit / self.issued


def replay(log, tracker) -> None:
    """Feed ``tracker`` a recorded credit log, one protocol call per
    entry, in the recorded order, so it ends exactly as if it had
    watched the run.  ``log`` is a result's
    :class:`~repro.engine.compact.CreditLog`, whose columns
    :meth:`~repro.engine.compact.CreditLog.walk` replays, or a live
    ``Hierarchy.credit_log`` list."""
    CreditLog.of(log).walk(tracker.on_prefetch_issued, tracker.on_useful,
                           tracker.on_pollution)


class CreditTracker:
    """Aggregates prefetch credits from a replayed credit log.

    Parameters
    ----------
    categorize:
        Optional ``line -> hashable category`` function (e.g.
        ``OfflineClassifier(...).category``).  Without it everything lands
        in the single category ``"all"``.
    level:
        Which cache level's useful/pollution events to account (1 or 2),
        or ``None`` to accept both — required when a composite routes
        different components to different destination levels (T2/P1 serve
        demand at L1, C1 at L2).
    """

    def __init__(self, categorize: Callable | None = None,
                 level: int | None = None) -> None:
        self._categorize = categorize or (lambda line: "all")
        self.level = level
        self.buckets: dict[tuple, CreditBucket] = defaultdict(CreditBucket)
        self._line_category: dict[int, object] = {}

    # ------------------------------------------------------------------
    # Tracker protocol
    # ------------------------------------------------------------------
    def on_prefetch_issued(self, line: int, component: str | None) -> None:
        category = self._categorize(line)
        self._line_category[line] = category
        self.buckets[(component, category)].issued += 1

    def on_useful(self, line: int, component: str | None,
                  level: int) -> None:
        if self.level is not None and level != self.level:
            return
        category = self._line_category.get(line)
        if category is None:
            category = self._categorize(line)
        self.buckets[(component, category)].positive += 1.0

    def on_pollution(self, level: int, victims) -> None:
        if not victims:
            return
        if self.level is not None and level != self.level:
            return
        share = 1.0 / len(victims)
        for line, component in victims:
            category = self._line_category.get(line)
            if category is None:
                category = self._categorize(line)
            self.buckets[(component, category)].negative += share

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def bucket(self, component: str | None = None,
               category=None) -> CreditBucket:
        """Sum over all buckets matching the given component/category."""
        total = CreditBucket()
        for (bucket_component, bucket_category), bucket in \
                self.buckets.items():
            if component is not None and bucket_component != component:
                continue
            if category is not None and bucket_category != category:
                continue
            total.issued += bucket.issued
            total.positive += bucket.positive
            total.negative += bucket.negative
        return total

    def by_category(self) -> dict:
        """Category -> aggregated bucket (over all components)."""
        categories = {category for _, category in self.buckets}
        return {c: self.bucket(category=c) for c in categories}

    def by_component(self) -> dict:
        components = {component for component, _ in self.buckets}
        return {c: self.bucket(component=c) for c in components}
