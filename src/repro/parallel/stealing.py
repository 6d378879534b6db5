"""Parent-side work-stealing scheduler for fused simulation units.

The static scheduler (PR 5) carved the matrix into workload-affine
chunks of ``ceil(cells / (workers * 2))`` and dispatched them FIFO — a
shape that loses exactly when cells are imbalanced: one worker drags a
chunk of slow cells while its lane-mates idle (the straggler report's
``unit_imbalance`` metric was built to show this).  With shared-memory
traces (:mod:`repro.parallel.shm`) the per-unit trace-load cost is
gone, so units can be fine-grained and redistributed freely.

The scheduler keeps one **home deque per workload** and tracks one
virtual *lane* per in-flight slot (the pool's submission window equals
the worker count when a timeout is set, so slots approximate workers):

* a freed lane first takes the **head of its home queue** — the
  workload it just replayed, whose trace its worker has memoized (and
  whose replay plans are warm);
* an idle lane whose home queue has nothing ready **steals from the
  tail of the longest other queue** — the classic work-stealing
  discipline: owners consume their queue from the head, thieves take
  from the opposite end of the deepest backlog;
* retried cells re-enter their home queue as singleton entries with a
  backoff ``ready_at``; entries not yet ready are skipped by owner and
  thief alike.

Every steal is counted (total, per lane) together with the stolen
unit's queue wait — the latency a static schedule would have added to
the critical path.  :mod:`repro.parallel` turns these into ``steal``
fabric spans, ``pool.steals`` metrics, and the "steals" column of
``repro trace``'s pool report.
"""

from __future__ import annotations

from collections import deque


class StealScheduler:
    """Per-workload home queues with tail stealing for idle lanes.

    Entries are ``(unit, attempt, ready_at, enqueued)`` — the same
    tuple the flat pending deque used to hold; ``unit`` is a tuple of
    cell indices, ``ready_at`` a monotonic instant a retry's backoff
    expires at, ``enqueued`` when the entry entered its queue.
    """

    def __init__(self) -> None:
        self.queues: dict[str, deque] = {}
        self.order: list[str] = []      # first-seen workload order
        self.steals = 0
        self.steals_by_lane: dict[int, int] = {}
        self.steal_waits: list[float] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, workload: str, unit: tuple, attempt: int,
             ready_at: float, enqueued: float) -> None:
        queue = self.queues.get(workload)
        if queue is None:
            queue = self.queues[workload] = deque()
            self.order.append(workload)
        queue.append((unit, attempt, ready_at, enqueued))
        self._count += 1

    def next_ready_at(self, now: float) -> float | None:
        """Earliest backoff expiry among not-yet-ready entries."""
        waits = [entry[2]
                 for queue in self.queues.values()
                 for entry in queue if entry[2] > now]
        return min(waits) if waits else None

    # ------------------------------------------------------------------
    def pop(self, lane: int, home: str | None, now: float):
        """Next unit for ``lane``, or ``None`` when nothing is ready.

        Returns ``(entry, workload, steal_wait)`` where ``steal_wait``
        is ``None`` for an owned (or first-claim) unit and the stolen
        unit's queue wait in seconds for a steal.
        """
        if home is not None:
            picked = self._pop_ready(self.queues.get(home),
                                     head=True, now=now)
            if picked is not None:
                return picked, home, None
        claim = home is None
        victim = self._pick_victim(home, now)
        if victim is None:
            return None
        workload, queue = victim
        picked = self._pop_ready(queue, head=claim, now=now)
        if picked is None:  # pragma: no cover - victim vetted above
            return None
        if claim:
            # A lane's first unit is an assignment, not a theft.
            return picked, workload, None
        wait = max(now - picked[3], 0.0)
        self.steals += 1
        self.steals_by_lane[lane] = self.steals_by_lane.get(lane, 0) + 1
        self.steal_waits.append(wait)
        return picked, workload, wait

    # ------------------------------------------------------------------
    def _pop_ready(self, queue, head: bool, now: float):
        """Remove and return the first ready entry from one end."""
        if not queue:
            return None
        indices = range(len(queue)) if head else range(len(queue) - 1, -1, -1)
        for index in indices:
            if queue[index][2] <= now:
                entry = queue[index]
                del queue[index]
                self._count -= 1
                return entry
        return None

    def _pick_victim(self, home, now: float):
        """The longest queue (other than ``home``) with a ready entry."""
        best = None
        best_depth = -1
        for workload in self.order:
            if workload == home:
                continue
            queue = self.queues.get(workload)
            if not queue or len(queue) <= best_depth:
                continue
            if any(entry[2] <= now for entry in queue):
                best = (workload, queue)
                best_depth = len(queue)
        return best
