"""Fault telemetry: one JSONL record per degradation, plus counters.

Every retry, timeout, worker loss, corrupt-cache detection, and resume
hit appends one line to the fault log (default
``runs/journal/faults.jsonl``; override with ``REPRO_FAULT_LOG``, empty
string disables).  Records carry the same fixed key set as prefetch
lifecycle events (``kind``/``cycle``/``line``/``component``/``level``/
``pc``/``dur``) so the existing ``python -m repro events`` verb filters
and summarizes them unchanged:

```
python -m repro events runs/journal/faults.jsonl
python -m repro events runs/journal/faults.jsonl --kind cell_retry --list
```

Field mapping for fault records: ``component`` is the prefetcher spec
key, ``level`` is the attempt number, ``cycle`` is wall-clock
milliseconds since the epoch, ``dur`` is the fault's duration in
milliseconds where meaningful (e.g. how long a timed-out cell had been
running).  Extra keys (``workload``, ``tag``, ``detail``) ride along;
the event readers ignore keys they do not know.  Callers that know the
affected cell attempt pass ``span`` — the deterministic
:func:`repro.obs.cell_span_id` of that attempt — so fault records
correlate with the sweep's ``runs/<id>/spans.jsonl`` and ``repro
events`` output lines up with ``repro trace``.

Each fault also counts ``faults.<kind>`` in the process metrics
registry (:mod:`repro.obs.metrics`), so in-process consumers —
``repro bench --chaos``, tests — read the totals as a registry
difference (:func:`faults_since`) without re-reading the log, and a
sweep's retry and chaos-recovery counts land in its ``metrics.json``.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

from repro.obs.metrics import PROCESS, since

FAULT_LOG_ENV = "REPRO_FAULT_LOG"
DEFAULT_FAULT_LOG = "runs/journal/faults.jsonl"

CELL_RETRY = "cell_retry"          # a cell was rescheduled after a fault
CELL_TIMEOUT = "cell_timeout"      # the per-cell wall-clock budget expired
CELL_FAILED = "cell_failed"        # retries exhausted; slot holds CellFailure
WORKER_LOST = "worker_lost"        # a pool worker died under an in-flight cell
POOL_DEGRADED = "pool_degraded"    # the pool was torn down and replaced
CACHE_CORRUPT = "cache_corrupt"    # an unreadable cache entry was dropped
RESUME_HIT = "resume_hit"          # a journaled cell was served from cache
SECTION_FAILED = "section_failed"  # a report_all section was isolated

FAULT_KINDS = (
    CELL_RETRY,
    CELL_TIMEOUT,
    CELL_FAILED,
    WORKER_LOST,
    POOL_DEGRADED,
    CACHE_CORRUPT,
    RESUME_HIT,
    SECTION_FAILED,
)

def faults_since(before: Counter) -> Counter:
    """Faults this process logged after ``before`` (a
    :func:`repro.obs.metrics.mark`), by kind."""
    return Counter({name[len("faults."):]: value
                    for name, value in since(before).items()
                    if name.startswith("faults.")})


def fault_log_path() -> "str | None":
    """Log destination honoring ``REPRO_FAULT_LOG`` (empty = disabled)."""
    path = os.environ.get(FAULT_LOG_ENV)
    if path is None:
        return DEFAULT_FAULT_LOG
    return path or None


def log_fault(kind: str, *, workload: str = "", spec: str = "",
              tag: str = "", attempt: int = 0, seconds: float = 0.0,
              detail: str = "", span: str = "") -> None:
    """Count one fault and append its JSONL record (best-effort: a
    failing log write never takes the run down with it)."""
    PROCESS.count(f"faults.{kind}")
    path = fault_log_path()
    if not path:
        return
    record = {
        "kind": kind,
        "cycle": int(time.time() * 1000),
        "line": -1,
        "component": spec or None,
        "level": attempt,
        "pc": -1,
        "dur": int(seconds * 1000),
        "workload": workload,
        "tag": tag,
        "detail": detail,
    }
    if span:
        record["span"] = span
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    except OSError:
        pass
