"""Metrics registries for the execution fabric.

Three instrument shapes, all plain data so a snapshot is just a dict:

* **Counters** — monotonically increasing event counts (cache hits,
  retries, chaos recoveries).  ``count(name)``.
* **Gauges** — last-written values (per-worker busy seconds, instr/sec
  per kernel variant).  ``gauge(name, value)``.
* **Histograms** — distributions summarized at snapshot time
  (queue-wait seconds, per-unit durations).  ``observe(name, value)``.

Names are dotted strings (``result_cache.disk_hit``,
``pool.worker.2.busy_seconds``); the registry imposes no schema.  A
snapshot serializes to ``metrics.json`` next to ``spans.jsonl`` (see
:class:`repro.obs.FabricObs`) and round-trips exactly through
:func:`write_metrics` / :func:`read_metrics` — the journal-resume test
pins that.

One registry per process, :data:`PROCESS`, is where every layer counts
(``PROCESS.count(name)``): the replay kernels (``kernel.*``), the trace
cache and the derived trace columns (``trace_cache.*``), the result
cache (``result_cache.*``) and the fault log (``faults.*``).  Nothing
resets it; a reader takes a :func:`mark` and later reads what was
counted since (:func:`since`, a ``Counter`` subtraction).  That is how a sweep's
:class:`repro.obs.FabricObs` gets its counts, and how a pool worker
reports a unit's counts back to the parent inside the unit's metadata.
"""

from __future__ import annotations

import json
from collections import Counter


def _quantile(ordered: list, q: float) -> float:
    """Nearest-rank quantile of an already-sorted list."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


class MetricsRegistry:
    """Counters, gauges, and histograms for one sweep (or one process)."""

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self.gauges: dict = {}
        self._observations: dict[str, list] = {}

    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def gauge(self, name: str, value) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        self._observations.setdefault(name, []).append(float(value))

    # ------------------------------------------------------------------
    def histogram(self, name: str) -> dict:
        """Summary of one observation series (zeros when never observed)."""
        ordered = sorted(self._observations.get(name, ()))
        count = len(ordered)
        total = sum(ordered)
        return {
            "count": count,
            "total": round(total, 6),
            "min": round(ordered[0], 6) if ordered else 0.0,
            "max": round(ordered[-1], 6) if ordered else 0.0,
            "mean": round(total / count, 6) if count else 0.0,
            "p50": round(_quantile(ordered, 0.50), 6),
            "p95": round(_quantile(ordered, 0.95), 6),
        }

    def snapshot(self) -> dict:
        """Plain-dict state: sorted, JSON-serializable, reproducible."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: self.histogram(name)
                for name in sorted(self._observations)
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricsRegistry({len(self.counters)} counters, "
                f"{len(self.gauges)} gauges, "
                f"{len(self._observations)} histograms)")


PROCESS = MetricsRegistry()
"""This process's registry.  Its counters only ever grow."""


def mark() -> Counter:
    """A copy of the process counters, to take :func:`since` against."""
    return Counter(PROCESS.counters)


def since(before: Counter) -> Counter:
    """What the process counted after ``before`` was marked (names that
    did not move drop out)."""
    return PROCESS.counters - before


def write_metrics(snapshot: dict, path) -> None:
    """Serialize a :meth:`MetricsRegistry.snapshot` as pretty JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_metrics(path) -> dict:
    """Load a ``metrics.json`` back; exact inverse of :func:`write_metrics`."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
