"""``repro.obs`` — execution-fabric observability.

Where :mod:`repro.telemetry` watches the *simulated machine* (prefetch
lifecycles, IPC/MPKI windows), this package watches the machinery that
runs the simulations: span-based tracing of every sweep (cell attempts,
fused units, trace warms, cache gets/puts, journal resumes,
retry/backoff waits, pool rebuilds), a metrics registry per sweep
(cache hit rates, retry and chaos-recovery counts, per-worker busy/idle
seconds, queue wait, instr/sec per kernel variant), and a
pool-utilization/straggler report.  Snapshots land in
``runs/<id>/spans.jsonl`` + ``metrics.json``; ``repro trace`` exports
the sweep as a Chrome ``trace_event`` timeline with one lane per worker
(open in ui.perfetto.dev), and ``repro metrics`` prints the registry.

The design contract mirrors the telemetry hub's: every integration
point takes ``obs=None`` by default and guards with ``is not None``,
and an obs-enabled run is bit-identical in every figure to an
unobserved one (enforced by ``tests/test_obs.py``).

Deep layers that never see the obs object — the result cache, the trace
cache, the fault log, the replay kernels — count into the one process
registry (:data:`repro.obs.metrics.PROCESS`).  A :class:`FabricObs`
marks the process counters when it is built and adds what was counted
since to its own registry when it finishes; pool workers send each
unit's counts back with the unit, and the parent adds them to the
sweep's registry.

See ``docs/observability.md`` ("Fabric observability") for the schema
and a Perfetto walkthrough.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, read_metrics, write_metrics
from repro.obs.spans import (
    SPAN_KINDS,
    FabricObs,
    Span,
    cell_span_id,
    read_spans,
)

OBS_ENV = "REPRO_OBS"


def obs_enabled(jobs: int = 1) -> bool:
    """Should the CLI attach fabric observability to this invocation?

    ``REPRO_OBS=0`` forces off, any other non-empty value forces on;
    unset, sweeps that fan out (``--jobs`` != 1) are observed and plain
    serial runs are not.
    """
    raw = os.environ.get(OBS_ENV, "")
    if raw == "0":
        return False
    if raw:
        return True
    return jobs != 1


def resolve_run(run: str, filename: str = "spans.jsonl",
                runs_dir: str = "runs") -> Path:
    """Resolve a ``repro trace``/``repro metrics`` argument to a file.

    Accepts a run directory, a run id under ``runs/``, a direct file
    path, or ``latest`` (the most recently written run that has
    ``filename``).  Raises ``SystemExit`` with a readable message when
    nothing matches.
    """
    if run == "latest":
        candidates = sorted(Path(runs_dir).glob(f"*/{filename}"),
                            key=lambda p: p.stat().st_mtime)
        if not candidates:
            raise SystemExit(
                f"no {filename} under {runs_dir}/ — run a sweep with "
                f"--jobs N first (e.g. repro compare spec.mcf --jobs 4)")
        return candidates[-1]
    path = Path(run)
    if path.is_dir():
        path = path / filename
    elif path.is_file() and path.name != filename:
        # e.g. `repro trace runs/x/spans.jsonl` asked for metrics.json:
        # resolve relative to the same run directory.
        path = path.parent / filename
    if not path.is_file():
        candidate = Path(runs_dir) / run / filename
        if candidate.is_file():
            return candidate
        raise SystemExit(f"no {filename} at {path} (or {candidate})")
    return path


__all__ = [
    "FabricObs",
    "Span",
    "SPAN_KINDS",
    "MetricsRegistry",
    "cell_span_id",
    "read_spans",
    "read_metrics",
    "write_metrics",
    "obs_enabled",
    "resolve_run",
    "OBS_ENV",
]
