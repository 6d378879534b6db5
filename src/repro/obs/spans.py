"""Sweep-level span tracing for the execution fabric.

PR 1 instrumented the *simulated machine* (prefetch lifecycle events);
this module instruments the machinery that runs the simulations.  One
:class:`FabricObs` object observes one sweep: every cell attempt, fused
unit, trace warm, cache get/put, journal resume, retry/backoff wait, and
pool rebuild becomes a :class:`Span` with a wall-clock start, a
duration, and a worker lane.  Worker-side spans travel back in the
unit metadata of :mod:`repro.parallel` and are merged parent-side in
deterministic order, so a ``--jobs 4`` sweep and a ``--jobs 1`` sweep
emit the same cell-span sequence (pinned by ``tests/test_obs.py``).

The contract mirrors the telemetry hub's: ``obs=None`` is the default
everywhere and emitters guard with ``obs is not None``; an obs-enabled
run produces bit-identical figures, only wall clock may change.

Span JSONL records are a superset of the fault-log schema
(``kind``/``cycle``/``line``/``component``/``level``/``pc``/``dur``), so
``python -m repro events runs/<id>/spans.jsonl`` filters and summarizes
them unchanged, and fault records tagged with :func:`cell_span_id`
correlate with ``repro trace`` output.

Snapshots land in ``runs/<sweep_id>/spans.jsonl`` + ``metrics.json``
next to the per-simulation manifests; the sweep id is a content hash of
the cells the sweep touched, so re-running the same sweep lands in the
same directory (the manifest run-id scheme, one level up).
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, mark, since, write_metrics

#: Deterministic snapshot order: spans sort by (kind rank, id, attempt).
SPAN_KINDS = (
    "sweep",
    "trace_warm",
    "cache_get",
    "cache_put",
    "journal_resume",
    "unit",
    "cell",
    "merge",
    "steal",
    "retry_wait",
    "pool_rebuild",
)

_KIND_RANK = {kind: rank for rank, kind in enumerate(SPAN_KINDS)}


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "sweep"


def cell_span_id(workload: str, spec: str, tag: str, attempt: int) -> str:
    """Deterministic span id of one cell attempt.

    Pure function of the cell identity — no obs object needed — so the
    fault log can tag its records with the id even when tracing is off,
    and ``repro events`` output correlates with ``repro trace`` output.
    """
    suffix = f"#{tag}" if tag else ""
    return f"cell:{workload}/{spec}{suffix}@{attempt}"


@dataclass
class Span:
    """One timed operation of the sweep fabric."""

    name: str                 # SPAN_KINDS member (or a future addition)
    sid: str                  # deterministic id, e.g. cell:spec.mcf/tpc@0
    t0: float                 # wall-clock start (epoch seconds)
    dur: float                # duration in seconds
    worker: int = 0           # lane: 0 = parent, 1..N = pool workers
    workload: str = ""
    spec: str = ""
    tag: str = ""
    attempt: int = 0
    parent: "str | None" = None
    attrs: dict = field(default_factory=dict)

    def record(self) -> dict:
        """JSONL form, schema-compatible with the fault log (and thus
        with ``repro events``): extra keys ride along and readers ignore
        what they do not know."""
        record = {
            "kind": self.name,
            "cycle": int(self.t0 * 1000),
            "line": -1,
            "component": self.spec or None,
            "level": self.attempt,
            "pc": -1,
            "dur": int(self.dur * 1000),
            "workload": self.workload,
            "tag": self.tag,
            "span": self.sid,
            "parent": self.parent,
            "worker": self.worker,
            "start": round(self.t0, 6),
            "seconds": round(self.dur, 6),
        }
        record.update(self.attrs)
        return record


class FabricObs:
    """Span recorder + metrics registry for one sweep.

    Deep layers that never see the object — result cache, trace cache,
    fault log, replay kernels — count into the process registry
    (:data:`repro.obs.metrics.PROCESS`).  The obs marks those counters
    when it is built and :meth:`finish` adds what this process counted
    since; the pool adds its workers' counts as their units come back.
    """

    def __init__(self, label: str = "sweep") -> None:
        self.label = label
        self.metrics = MetricsRegistry()
        self.spans: list[Span] = []
        self._t0 = time.time()
        self._p0 = time.perf_counter()
        self._lanes: dict[int, int] = {}
        self._seq: dict[str, int] = {}
        self._finished = False
        self._process_mark = mark()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, name: str, *, t0: float, dur: float,
               sid: "str | None" = None, worker: int = 0,
               workload: str = "", spec: str = "", tag: str = "",
               attempt: int = 0, parent: "str | None" = None,
               **attrs) -> Span:
        """Append one externally-measured span (worker payloads land
        here); returns it."""
        if sid is None:
            if workload:
                suffix = f"#{tag}" if tag else ""
                sid = f"{name}:{workload}/{spec}{suffix}"
            else:
                seq = self._seq.get(name, 0)
                self._seq[name] = seq + 1
                sid = f"{name}:{seq}"
        span = Span(name=name, sid=sid, t0=t0, dur=dur, worker=worker,
                    workload=workload, spec=spec, tag=tag, attempt=attempt,
                    parent=parent, attrs=attrs)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, *, sid: "str | None" = None, worker: int = 0,
             workload: str = "", spec: str = "", tag: str = "",
             attempt: int = 0, **attrs):
        """Context manager measuring one operation; yields a dict the
        body can drop extra attributes into (e.g. ``hit=True``)."""
        t0 = time.time()
        p0 = time.perf_counter()
        extra: dict = {}
        try:
            yield extra
        finally:
            attrs.update(extra)
            self.record(name, t0=t0, dur=time.perf_counter() - p0, sid=sid,
                        worker=worker, workload=workload, spec=spec, tag=tag,
                        attempt=attempt, **attrs)

    def lane_for(self, pid: int) -> int:
        """Stable 1-based lane for a pool-worker pid (first seen wins)."""
        lane = self._lanes.get(pid)
        if lane is None:
            lane = self._lanes[pid] = len(self._lanes) + 1
        return lane

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def finish(self) -> "FabricObs":
        """Close the sweep span, add the process counts made since the
        obs was built, and fold derived metrics into the registry
        (idempotent: a second call adds nothing)."""
        if self._finished:
            return self
        self._finished = True
        wall = time.perf_counter() - self._p0
        self.metrics.counters.update(since(self._process_mark))
        cells = [s for s in self.spans if s.name == "cell"]
        self.record("sweep", t0=self._t0, dur=wall,
                    sid=f"sweep:{_slug(self.label)}", cells=len(cells))

        # instr/sec attribution per replay-kernel variant.
        by_kernel: dict[str, list] = {}
        for span in cells:
            kernel = span.attrs.get("kernel")
            instructions = span.attrs.get("instructions")
            if kernel and instructions:
                totals = by_kernel.setdefault(kernel, [0, 0.0])
                totals[0] += instructions
                totals[1] += span.dur
        for kernel, (instructions, seconds) in sorted(by_kernel.items()):
            self.metrics.gauge(f"kernel.{kernel}.cells",
                               sum(1 for s in cells
                                   if s.attrs.get("kernel") == kernel))
            if seconds > 0:
                self.metrics.gauge(f"kernel.{kernel}.instr_per_sec",
                                   round(instructions / seconds))

        # Per-worker busy/idle seconds (and executed steals) from the
        # unit spans — a stolen unit carries ``stolen=True`` so the
        # rebalancing is attributed to the lane that ran it.
        busy: dict[int, float] = {}
        stolen: dict[int, int] = {}
        for span in self.spans:
            if span.name == "unit" and span.worker > 0:
                busy[span.worker] = busy.get(span.worker, 0.0) + span.dur
                if span.attrs.get("stolen"):
                    stolen[span.worker] = stolen.get(span.worker, 0) + 1
        if busy:
            self.metrics.gauge("pool.workers", len(busy))
            for lane, seconds in sorted(busy.items()):
                self.metrics.gauge(f"pool.worker.{lane}.busy_seconds",
                                   round(seconds, 6))
                self.metrics.gauge(f"pool.worker.{lane}.idle_seconds",
                                   round(max(wall - seconds, 0.0), 6))
                if stolen.get(lane):
                    self.metrics.gauge(f"pool.worker.{lane}.steals",
                                       stolen[lane])
        return self

    def records(self) -> list[dict]:
        """All span records in deterministic merge order.

        Spans are sorted by (kind rank, span id, attempt) — never by
        completion time — so a parallel sweep and a serial sweep of the
        same matrix snapshot the same sequence of cell spans.
        """
        ordered = sorted(
            self.spans,
            key=lambda s: (_KIND_RANK.get(s.name, len(SPAN_KINDS)),
                           s.sid, s.attempt, s.t0, s.dur),
        )
        return [span.record() for span in ordered]

    @property
    def sweep_id(self) -> str:
        """Deterministic directory name: label slug + content digest.

        The digest covers the identity-bearing spans (cells, cache gets,
        trace warms), so re-running an identical sweep lands in the same
        ``runs/<id>/`` directory — the manifest run-id idea, one level
        up.
        """
        identity = sorted(
            {span.sid for span in self.spans if span.name == "cell"}
        ) or sorted(
            {span.sid for span in self.spans
             if span.name in ("cache_get", "trace_warm")}
        ) or sorted({span.sid for span in self.spans})
        digest = hashlib.sha1("\x00".join(identity).encode()).hexdigest()
        return f"{_slug(self.label)}__{digest[:10]}"

    def write(self, runs_dir="runs") -> Path:
        """Snapshot to ``<runs_dir>/<sweep_id>/spans.jsonl`` +
        ``metrics.json``; returns the run directory."""
        self.finish()
        out = Path(runs_dir) / self.sweep_id
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        write_metrics(self.metrics.snapshot(), out / "metrics.json")
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FabricObs({self.label!r}, {len(self.spans)} spans)"


def read_spans(path) -> list[dict]:
    """Load a ``spans.jsonl`` file back as a list of records (torn final
    lines are skipped, mirroring the journal loader)."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
    return records
