"""``repro.faults`` — fault tolerance for the evaluation stack.

The performance layers (persistent fork pool, result + trace caches)
made big sweep matrices fast; this package makes them survivable.  A
production-scale sweep is only usable when one bad cell cannot take the
whole matrix down, a killed worker cannot lose hours of progress, and
every degradation leaves an auditable trail:

* **Per-cell isolation** — :class:`CellFailure` is what a matrix slot
  holds when a cell exhausted its retries: the exception, the formatted
  traceback, how many attempts were made, and whether the cell errored,
  timed out, or lost its worker.  :func:`repro.parallel.run_jobs` never
  lets one cell abort its siblings.
* **Retry with backoff** — :class:`RetryPolicy` bounds how often a cell
  is rescheduled and how long the parent waits between attempts
  (deterministic exponential backoff, no jitter), plus the per-cell
  wall-clock timeout that replaces a hung worker.  Every knob has an
  environment override so CI and operators can tune without code.
* **Resumable matrices** — :class:`~repro.faults.journal.MatrixJournal`
  records completed cells under ``runs/journal/`` with the same key
  scheme as the result cache, so an interrupted ``report_all``/
  ``compare --jobs N`` resumes with zero re-simulations.
* **Fault telemetry** — :mod:`~repro.faults.faultlog` appends one JSONL
  record per retry/timeout/degradation/resume-hit, schema-compatible
  with ``python -m repro events``.
* **Chaos harness** — :mod:`~repro.faults.chaos` deterministically
  injects worker kills, slow cells, torn cache writes, and corrupted
  pickles (``REPRO_CHAOS``; ``repro bench --chaos``), which is how the
  guarantees above stay tested instead of aspirational.

See ``docs/robustness.md`` for the failure model and knob reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

RETRY_MAX_ENV = "REPRO_RETRY_MAX"
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF"
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"

#: How a cell ultimately failed (``CellFailure.kind`` values).
FAIL_ERROR = "error"          # the cell's own code raised
FAIL_TIMEOUT = "timeout"      # exceeded the per-cell wall-clock budget
FAIL_WORKER_LOST = "worker-lost"  # its worker process died under it


@dataclass
class CellFailure:
    """Structured capture of one matrix cell that could not complete.

    Occupies the cell's slot in the ``run_jobs`` result list instead of
    a ``SimulationResult``; callers filter with ``isinstance`` (or
    :func:`failures_in`) and keep going.
    """

    workload: str
    spec: str
    tag: str
    kind: str               # FAIL_ERROR | FAIL_TIMEOUT | FAIL_WORKER_LOST
    error: str              # repr() of the final exception ("" for timeout)
    traceback: str          # formatted traceback ("" when none crossed over)
    attempts: int           # how many times the cell was scheduled

    def describe(self) -> str:
        return (f"{self.workload}/{self.spec}"
                f"{('#' + self.tag) if self.tag else ''}: "
                f"{self.kind} after {self.attempts} attempt(s)"
                f"{(' — ' + self.error) if self.error else ''}")


def failures_in(results) -> "list[CellFailure]":
    """The :class:`CellFailure` entries of a ``run_jobs`` result list."""
    return [r for r in results if isinstance(r, CellFailure)]


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def _env_float(name: str, default: "float | None") -> "float | None":
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff.

    ``max_attempts`` counts *schedulings* of a cell (first try included);
    ``delay(attempt)`` is the pause before scheduling attempt ``attempt``
    (1-based retries).  ``timeout_seconds`` is the per-cell wall-clock
    budget measured from dispatch to a pool worker — ``None`` disables
    the watchdog.  Environment overrides: ``REPRO_RETRY_MAX``,
    ``REPRO_RETRY_BACKOFF``, ``REPRO_CELL_TIMEOUT``.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    timeout_seconds: "float | None" = None

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        return cls(
            max_attempts=max(1, _env_int(RETRY_MAX_ENV, 3)),
            backoff_seconds=_env_float(RETRY_BACKOFF_ENV, 0.05) or 0.0,
            timeout_seconds=_env_float(CELL_TIMEOUT_ENV, None),
        )

    def delay(self, attempt: int) -> float:
        """Seconds to wait before scheduling ``attempt`` (>= 1)."""
        if attempt <= 0:
            return 0.0
        return self.backoff_seconds * (self.backoff_factor ** (attempt - 1))


from repro.faults.atomic import atomic_write_bytes, atomic_write_pickle  # noqa: E402
from repro.faults.faultlog import (  # noqa: E402
    CACHE_CORRUPT,
    CELL_FAILED,
    CELL_RETRY,
    CELL_TIMEOUT,
    FAULT_KINDS,
    POOL_DEGRADED,
    RESUME_HIT,
    SECTION_FAILED,
    WORKER_LOST,
    fault_log_path,
    log_fault,
)
from repro.faults.journal import DEFAULT_JOURNAL_DIR, MatrixJournal  # noqa: E402

__all__ = [
    "CellFailure",
    "RetryPolicy",
    "failures_in",
    "FAIL_ERROR",
    "FAIL_TIMEOUT",
    "FAIL_WORKER_LOST",
    "atomic_write_bytes",
    "atomic_write_pickle",
    "MatrixJournal",
    "DEFAULT_JOURNAL_DIR",
    "FAULT_KINDS",
    "CELL_RETRY",
    "CELL_TIMEOUT",
    "CELL_FAILED",
    "WORKER_LOST",
    "POOL_DEGRADED",
    "CACHE_CORRUPT",
    "RESUME_HIT",
    "SECTION_FAILED",
    "log_fault",
    "fault_log_path",
]
