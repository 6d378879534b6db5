"""Fault-tolerant parallel fan-out of independent simulations.

Every figure experiment walks a (workload x prefetcher spec x config
tag) matrix in which each cell is an independent, deterministic
simulation — the classic embarrassingly-parallel sweep shape.  This
module dispatches those cells over a **persistent** process pool and
merges the results **in submission order**, so the merged outcome is
bit-identical to running the same jobs serially.

Performance properties (PR 2-3, reworked by the shared-memory PR):

* **Persistent pool** — the executor forks its workers once per
  process and is reused across every ``run_jobs`` call.
  ``shutdown_pool()`` runs at interpreter exit, or sooner if the worker
  count changes.
* **Zero-copy trace sharing** — the parent publishes each warmed
  compiled trace's numpy columns (primary, derived, segment events,
  memory image) into named ``multiprocessing.shared_memory`` segments
  once (:mod:`repro.parallel.shm`); workers attach and rebuild the
  trace as ``frombuffer`` views — no re-deserialization, and no
  reliance on fork-COW timing: a trace the parent first loads after
  the pool forked reaches the workers the same way.  The
  manifest entries ride the unit payloads; segments are unlinked at
  ``atexit``, on ``KeyboardInterrupt``, or via
  :func:`repro.parallel.shm.release_all`.  ``REPRO_SHM=0`` restores
  the legacy disk-cache path.
* **Compact results** — a worker's result crosses the pipe as it is:
  its per-line records are already the numpy columns of
  :mod:`repro.engine.compact`, so there is no wire format to pack and
  unpack.  Each result also carries the replay-kernel variant that
  produced it (``SimulationResult.kernel``) for attribution.
* **Work-stealing dispatch** — pool-eligible cells are grouped by
  workload into fine-grained fused units (:func:`_fusion_units`) and
  scheduled by :class:`~repro.parallel.stealing.StealScheduler`: each
  in-flight slot is a lane with a home workload; a freed lane takes
  the head of its home queue (trace/plan affinity) and an idle lane
  steals from the tail of the deepest other queue, so one straggling
  workload can no longer strand its lane-mates idle.  Steals surface
  as ``steal`` spans, ``pool.steals`` metrics, and the straggler
  report's "steals" column.  Serial ``run_jobs(..., 1)`` is the
  reference every pool schedule must reproduce bit-for-bit.

Fault-tolerance properties (this layer; see docs/robustness.md):

* **Per-cell isolation** — a cell that raises is retried under the
  :class:`~repro.faults.RetryPolicy` (bounded attempts, deterministic
  exponential backoff) and, if it keeps failing, its slot holds a
  structured :class:`~repro.faults.CellFailure` instead of aborting the
  matrix.  ``run_jobs`` itself never raises for a cell-level problem.
* **Hung-worker replacement** — with ``policy.timeout_seconds`` set,
  cells are dispatched at most ``workers`` at a time so the per-cell
  wall clock is honest; a cell that overruns is declared timed out, the
  whole pool is forcibly replaced (:func:`kill_pool` — the only
  portable way to reclaim a stuck worker), innocent in-flight cells are
  resubmitted without an attempt penalty, and the timed-out cell
  retries fresh.
* **Worker-death recovery** — a broken pool (a worker OOM-killed or
  chaos-killed mid-cell) is detected, torn down, and replaced; all
  in-flight cells are rescheduled with one attempt consumed, and a cell
  that keeps losing workers gets one last in-parent serial attempt
  before being declared failed.
* **Deterministic chaos** — the worker entry point and the serial path
  run the :mod:`repro.faults.chaos` checkpoint, so injected kills and
  slowdowns exercise exactly these recovery paths in CI.
* **Timings always fill** — the ``timings`` dict is populated on every
  exit path (the old code left it empty when trace warming or the
  overlapped serial stragglers raised).

Correctness properties preserved from the serial path: every simulation
constructs its own prefetcher/hierarchy/DRAM state, completion order
never matters (results align with the job list), and specs that cannot
cross a process boundary fall back to serial execution in the parent.
Every degradation is counted and JSONL-logged via
:mod:`repro.faults.faultlog` (``python -m repro events`` reads it); the
records carry the cell's deterministic span id, so they correlate with
``repro trace`` output.

Observability (see docs/observability.md "Fabric"): pass an ``obs``
(:class:`repro.obs.FabricObs`) and the scheduler traces every trace
warm, fused unit, cell attempt, retry/backoff wait, pool rebuild, and
merge batch as spans.  Every unit returns its metadata with its
outcomes: the worker pid, the unit's worker-side start and duration,
one span per cell (wall start, duration, kernel variant, instruction
count), and what the worker counted into its process metrics registry
while running the unit.  The parent merges the spans in deterministic
order and adds the counts to the sweep's registry.  ``obs=None`` — the
default — drops the metadata; scheduling and figures are identical
either way.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import time
import traceback
from typing import Sequence

from repro.engine.config import SystemConfig
from repro.obs import metrics
from repro.obs.spans import cell_span_id
from repro.parallel import shm
from repro.parallel.stealing import StealScheduler

SimJob = tuple  # (workload, spec, tag) — see ``normalize_job``

_EXECUTOR = None
_EXECUTOR_WORKERS = 0
_SHUTDOWN_REGISTERED = False


def default_jobs() -> int:
    """Worker count when ``--jobs 0`` is given: one per CPU."""
    return os.cpu_count() or 1


def normalize_job(job) -> tuple[str, object, str]:
    """Accept ``(workload, spec)`` or ``(workload, spec, tag)``."""
    if len(job) == 2:
        workload, spec = job
        return workload, spec, ""
    workload, spec, tag = job
    return workload, spec, tag


def _is_picklable(spec) -> bool:
    if isinstance(spec, str):
        return True
    try:
        pickle.dumps(spec)
        return True
    except Exception:
        return False


def _safe_spec_key(spec) -> str:
    """A cell-identity string that never raises (failure reporting)."""
    try:
        from repro.experiments.runner import spec_key

        return spec_key(spec)
    except Exception:
        return repr(spec)


# ----------------------------------------------------------------------
# Persistent pool
# ----------------------------------------------------------------------
def pool_workers() -> int:
    """Worker count of the live persistent pool (0 when none)."""
    return _EXECUTOR_WORKERS if _EXECUTOR is not None else 0


def shutdown_pool(wait: bool = True) -> None:
    """Tear down the persistent pool (no-op when none is running)."""
    global _EXECUTOR, _EXECUTOR_WORKERS
    executor = _EXECUTOR
    _EXECUTOR = None
    _EXECUTOR_WORKERS = 0
    if executor is not None:
        executor.shutdown(wait=wait)


def kill_pool() -> None:
    """Forcibly terminate the pool's workers and discard the executor.

    Used to replace a hung worker: ``Executor.shutdown`` waits for
    running calls, which is exactly what a stuck cell never allows, so
    the watchdog terminates the worker processes outright.  In-flight
    futures complete with ``BrokenProcessPool``; callers resubmit to a
    fresh pool.
    """
    global _EXECUTOR, _EXECUTOR_WORKERS
    executor = _EXECUTOR
    _EXECUTOR = None
    _EXECUTOR_WORKERS = 0
    if executor is None:
        return
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # already gone
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def _worker_init() -> None:
    """Runs in every pool worker: lets chaos know kills are safe here."""
    from repro.faults import chaos

    chaos.mark_worker()


def _get_executor(workers: int):
    """The persistent fork pool, (re)created when its size changes."""
    global _EXECUTOR, _EXECUTOR_WORKERS, _SHUTDOWN_REGISTERED
    if _EXECUTOR is not None and _EXECUTOR_WORKERS != workers:
        shutdown_pool()
    if _EXECUTOR is None:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import resource_tracker

        # Workers must share this process's resource tracker, the one
        # shm.publish registers segments with: a fork worker inherits
        # the tracker only if it is running before the fork.  A worker
        # that started its own would unlink every segment it attached
        # when it died.
        resource_tracker.ensure_running()
        _EXECUTOR = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init)
        _EXECUTOR_WORKERS = workers
        if not _SHUTDOWN_REGISTERED:
            atexit.register(shutdown_pool)
            _SHUTDOWN_REGISTERED = True
    return _EXECUTOR


class RemoteCellError(Exception):
    """One cell of a fused unit failed in its worker.

    Carries the worker-side traceback so :func:`_fail` can surface it;
    ``repr()`` embeds the original error so failure messages read the
    same as before fusion.
    """

    def __init__(self, error: str, remote_traceback: str) -> None:
        super().__init__(error)
        self.remote_traceback = remote_traceback


def _simulate_unit(payload):
    """Worker entry point: one fused unit of same-workload cells.

    ``payload`` is ``(cells, config, attempt, shared)``.  ``shared``
    holds the shared-memory manifest entries for the unit's workload
    (:class:`repro.parallel.shm.SharedTrace`, or ``None``);
    :func:`shm.install` adopts them as zero-copy trace views before the
    first cell runs (a fork-inherited memo wins, so attach cost is paid
    at most once per worker per workload).  Then every cell replays
    against the trace back-to-back.  Each cell is isolated: an
    exception is captured per cell and returned as data, so one bad
    prefetcher config never voids its unit-mates' work.

    The chaos checkpoint runs per cell: under injection this is where a
    targeted cell sleeps or its worker dies — deterministically, on
    attempt 0 only, so the retry always runs clean.

    Returns ``(outcomes, meta)``.  ``meta`` carries the worker pid, the
    unit's worker-side wall start (``t0``) and duration (``dur``), one
    span dict per cell (wall start, duration, kernel variant,
    instruction count), and ``counters``: what this process counted
    into its metrics registry during the unit, marked before the
    shared-memory attach so ``trace_cache.shm_attaches`` is included.
    """
    from repro.experiments.runner import simulate_spec
    from repro.faults import chaos

    cells, config, attempt, shared = payload
    t0 = time.time()
    started = time.perf_counter()
    before = metrics.mark()
    if shared:
        shm.install(shared)
    outcomes = []
    spans = []
    for workload, spec, tag in cells:
        chaos.on_cell_start(workload, spec, tag, attempt)
        span = {"t0": time.time(), "workload": workload,
                "spec": _safe_spec_key(spec), "tag": tag,
                "attempt": attempt}
        cell_started = time.perf_counter()
        try:
            result = simulate_spec(workload, spec, tag, config)
            span["dur"] = time.perf_counter() - cell_started
            span["kernel"] = getattr(result, "kernel", "generic")
            span["instructions"] = result.core.instructions
            outcomes.append(("ok", result))
        except Exception as exc:
            span["dur"] = time.perf_counter() - cell_started
            span["error"] = repr(exc)
            outcomes.append(("err", repr(exc),
                             "".join(traceback.format_exception(exc))))
        spans.append(span)
    return outcomes, {"pid": os.getpid(), "t0": t0,
                      "dur": time.perf_counter() - started,
                      "spans": spans, "counters": metrics.since(before)}


def _fusion_units(remote, normalized, workers) -> list[tuple]:
    """Group pool-eligible cells into workload-affine units.

    Cells sharing a workload land in the same unit (in submission
    order) so a worker pays trace adoption once per workload and
    replays all its prefetcher configs back-to-back.  Units are
    fine-grained — ``ceil(len(remote) / (workers * 4))`` cells, at most
    8 — because shared-memory trace columns removed the per-unit
    trace-load cost, and small units are what give the stealing
    scheduler room to rebalance a straggling workload.
    """
    groups: dict[str, list[int]] = {}
    for i in remote:
        groups.setdefault(normalized[i][0], []).append(i)
    chunk = max(1, min(-(-len(remote) // (workers * 4)), 8))
    units = []
    for indices in groups.values():
        for start in range(0, len(indices), chunk):
            units.append(tuple(indices[start:start + chunk]))
    return units


# ----------------------------------------------------------------------
def warm_traces(workloads, obs=None) -> float:
    """Build/load the compiled traces for ``workloads`` in this process.

    Called by :func:`run_jobs` before dispatching so workers never
    regenerate traces: fork shares the parent's columns copy-on-write
    and the on-disk trace cache covers workers forked earlier.  Returns
    the seconds spent.  With ``obs``, each workload's warm becomes a
    ``trace_warm`` span.
    """
    from repro.workloads import get_workload

    started = time.perf_counter()
    for workload in dict.fromkeys(workloads):
        if obs is None:
            get_workload(workload).trace()
        else:
            with obs.span("trace_warm", workload=workload):
                get_workload(workload).trace()
    return time.perf_counter() - started


def _publish_traces(workloads, obs=None) -> dict:
    """Publish warmed traces as shared-memory segments (manifest entries).

    Returns ``{workload: SharedTrace}`` for everything published —
    empty when ``REPRO_SHM=0`` or nothing qualified (a memory image
    outside signed 64-bit range stays on the legacy path, exactly like
    the on-disk trace cache).  The traces are warm, so publication is
    one memcpy per column; segments persist across ``run_jobs`` calls
    and publishing the same workload again reuses the live segment.
    """
    if not shm.enabled():
        return {}
    from repro.workloads import get_workload

    entries = {}
    for workload in workloads:
        entry = shm.publish(workload, get_workload(workload).trace())
        if entry is not None:
            entries[workload] = entry
    if obs is not None and entries:
        obs.metrics.gauge("shm.segments", len(shm.manifest_names()))
        obs.metrics.gauge("shm.bytes",
                          sum(e.nbytes for e in entries.values()))
    return entries


# ----------------------------------------------------------------------
# Fault-tolerant scheduler
# ----------------------------------------------------------------------
def run_jobs(jobs: Sequence[SimJob], config: SystemConfig,
             n_jobs: int, timings: dict | None = None,
             policy=None, obs=None) -> list:
    """Simulate ``jobs`` with up to ``n_jobs`` persistent workers.

    Returns a list aligned with ``jobs`` where each slot holds either a
    ``SimulationResult`` or, for a cell that exhausted its retries, a
    :class:`~repro.faults.CellFailure` — one bad cell never aborts the
    matrix, and ``run_jobs`` does not raise for cell-level problems.

    ``n_jobs <= 1`` runs everything serially in-process (same code path
    the workers use, same isolation), as does a job list with at most
    one pool-eligible cell.  ``policy`` is the retry/timeout contract
    (default: ``RetryPolicy()``).  ``timings``, when given, is filled on
    **every** exit path with the phase breakdown
    (``trace_warm_seconds``, ``simulate_seconds``, ``merge_seconds``).
    ``obs`` (a :class:`repro.obs.FabricObs`) attaches fabric span
    tracing and receives the workers' counts; ``None`` records nothing.
    """
    from repro.faults import RetryPolicy

    if policy is None:
        policy = RetryPolicy()
    normalized = [normalize_job(job) for job in jobs]
    results: list = [None] * len(normalized)
    remote: list[int] = []
    local: list[int] = []
    if n_jobs > 1 and len(normalized) > 1:
        for i, (_, spec, _) in enumerate(normalized):
            (remote if _is_picklable(spec) else local).append(i)

    warm_seconds = 0.0
    merge_seconds = 0.0
    started = time.perf_counter()
    try:
        if len(remote) <= 1:
            # Serial path: nothing (or a single cell) is pool-eligible —
            # a pool that could only ever run one job is pure overhead.
            _run_serial(range(len(normalized)), normalized, config,
                        results, policy, obs)
            return results
        warm_seconds = warm_traces((normalized[i][0] for i in remote), obs)
        workers = min(n_jobs, len(remote))
        shared = _publish_traces(
            dict.fromkeys(normalized[i][0] for i in remote), obs)
        merge_seconds = _run_pool(remote, local, normalized, config,
                                  results, workers, policy, obs, shared)
        return results
    except BaseException as exc:
        if not isinstance(exc, Exception):
            # A KeyboardInterrupt/SystemExit unwinding the sweep must
            # not leak /dev/shm segments or a stuck pool: tear both
            # down before propagating (the lifecycle test asserts the
            # manifest comes back empty).
            kill_pool()
            shm.release_all()
        raise
    finally:
        if timings is not None:
            timings["trace_warm_seconds"] = round(warm_seconds, 3)
            timings["simulate_seconds"] = round(
                time.perf_counter() - started - merge_seconds, 3)
            timings["merge_seconds"] = round(merge_seconds, 3)


def _attempt_serial(i: int, attempt: int, normalized, config):
    """One in-parent attempt of cell ``i`` (chaos slow applies; chaos
    kill never fires outside a pool worker)."""
    from repro.experiments.runner import simulate_spec
    from repro.faults import chaos

    workload, spec, tag = normalized[i]
    chaos.on_cell_start(workload, spec, tag, attempt)
    return simulate_spec(workload, spec, tag, config)


def _fail(i: int, normalized, kind: str, attempts: int,
          exc: "BaseException | None") -> object:
    """Build the CellFailure for slot ``i`` and log it."""
    from repro.faults import CellFailure, faultlog

    workload, spec, tag = normalized[i]
    key = _safe_spec_key(spec)
    if exc is None:
        error, trace = "", ""
    elif isinstance(exc, RemoteCellError):
        # The real failure happened in a worker: report the original
        # error string and the worker-side traceback.
        error = str(exc)
        trace = exc.remote_traceback
    else:
        error = repr(exc)
        trace = "".join(traceback.format_exception(exc))
    failure = CellFailure(
        workload=workload, spec=key, tag=tag, kind=kind,
        error=error, traceback=trace,
        attempts=attempts,
    )
    faultlog.log_fault(faultlog.CELL_FAILED, workload=workload, spec=key,
                       tag=tag, attempt=attempts, detail=failure.error,
                       span=cell_span_id(workload, key, tag,
                                         max(attempts - 1, 0)))
    return failure


def _run_serial(indices, normalized, config, results, policy,
                obs=None) -> None:
    """In-process execution with the same isolation/retry contract."""
    from repro.faults import faultlog

    for i in indices:
        if results[i] is not None:
            continue
        workload, spec, tag = normalized[i]
        key = _safe_spec_key(spec)
        attempt = 0
        while True:
            t0 = time.time()
            p0 = time.perf_counter()
            try:
                result = _attempt_serial(i, attempt, normalized, config)
                if obs is not None:
                    obs.record(
                        "cell", t0=t0, dur=time.perf_counter() - p0,
                        sid=cell_span_id(workload, key, tag, attempt),
                        workload=workload, spec=key, tag=tag,
                        attempt=attempt,
                        kernel=getattr(result, "kernel", "generic"),
                        instructions=result.core.instructions,
                    )
                results[i] = result
                break
            except Exception as exc:
                if obs is not None:
                    obs.record(
                        "cell", t0=t0, dur=time.perf_counter() - p0,
                        sid=cell_span_id(workload, key, tag, attempt),
                        workload=workload, spec=key, tag=tag,
                        attempt=attempt, error=repr(exc),
                    )
                failed_attempt = attempt
                attempt += 1
                if attempt >= policy.max_attempts:
                    results[i] = _fail(i, normalized, "error", attempt, exc)
                    break
                faultlog.log_fault(
                    faultlog.CELL_RETRY, workload=workload,
                    spec=key, tag=tag, attempt=attempt,
                    detail=repr(exc),
                    span=cell_span_id(workload, key, tag, failed_attempt),
                )
                delay = policy.delay(attempt)
                if obs is not None:
                    obs.record(
                        "retry_wait", t0=time.time(), dur=delay,
                        sid=f"retry_wait:{cell_span_id(workload, key, tag, attempt)}",
                        workload=workload, spec=key, tag=tag,
                        attempt=attempt,
                    )
                time.sleep(delay)


def _run_pool(remote, local, normalized, config, results, workers,
              policy, obs=None, shared=None) -> float:
    """Dispatch ``remote`` cells over the pool; returns merge seconds.

    Cells are fused into fine-grained workload-affine units
    (:func:`_fusion_units`) and dispatched by the work-stealing
    discipline of :class:`~repro.parallel.stealing.StealScheduler`:
    each in-flight slot is a virtual lane with a home workload; a freed
    lane takes the head of its home queue (the trace its worker has
    adopted, the plans it has memoized) and an idle lane steals from
    the tail of the deepest other queue.  Each steal is recorded as a
    ``steal`` span plus ``pool.steals`` / ``pool.steal_wait_seconds``
    metrics, and marks the eventual unit span ``stolen`` so the
    straggler report attributes rebalancing per worker.  ``shared``
    (workload -> :class:`repro.parallel.shm.SharedTrace`) rides each
    payload so workers attach zero-copy trace columns instead of
    re-deserializing the disk cache.

    The scheduler keeps at most ``window`` units in flight (== the
    worker count when a timeout is set, so the per-unit wall clock is
    honest; a bit more otherwise to hide submission latency), retries
    faulted cells with backoff — always as singleton units, so a retry
    never re-runs its innocent unit-mates — replaces the pool when a
    worker dies or hangs, and runs the non-picklable ``local``
    stragglers in the parent while the first wave churns.

    A unit's timeout budget scales with its size
    (``policy.timeout_seconds * len(unit)``): the per-cell contract is
    unchanged, a unit of K cells simply has K cells' worth of clock.
    """
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures.process import BrokenProcessPool

    from repro.faults import faultlog

    window = workers if policy.timeout_seconds else workers * 2
    # Scheduler entries are (unit, attempt, ready_at, enqueued) — unit
    # a tuple of cell indices, ready_at a monotonic instant the unit's
    # backoff expires at, enqueued when it entered its home queue
    # (queue-wait and steal-latency attribution).
    start = time.monotonic()
    scheduler = StealScheduler()
    for unit in _fusion_units(remote, normalized, workers):
        scheduler.push(normalized[unit[0]][0], unit, 0, 0.0, start)
    # future -> (unit, attempt, dispatched_at, queue_wait, slot,
    #            steal_wait | None, submitted_wall)
    inflight: dict = {}
    lane_home: dict[int, "str | None"] = {
        slot: None for slot in range(window)}
    merge_seconds = 0.0
    executor = _get_executor(workers)

    def cell_tag(i):
        workload, spec, tag = normalized[i]
        return workload, _safe_spec_key(spec), tag

    def budget(unit) -> float:
        return policy.timeout_seconds * len(unit)

    def replace_pool(reason: str) -> None:
        nonlocal executor
        if obs is None:
            kill_pool()
            executor = _get_executor(workers)
        else:
            with obs.span("pool_rebuild", reason=reason):
                kill_pool()
                executor = _get_executor(workers)
        faultlog.log_fault(faultlog.POOL_DEGRADED, detail=reason)

    def reschedule(i: int, attempt: int, kind: str,
                   exc: "BaseException | None", now: float) -> None:
        """Retry cell ``i`` (attempt consumed), or finalize its slot."""
        workload, key, tag = cell_tag(i)
        next_attempt = attempt + 1
        if next_attempt < policy.max_attempts:
            faultlog.log_fault(faultlog.CELL_RETRY, workload=workload,
                               spec=key, tag=tag, attempt=next_attempt,
                               detail=kind if exc is None else repr(exc),
                               span=cell_span_id(workload, key, tag,
                                                 attempt))
            delay = policy.delay(next_attempt)
            if obs is not None:
                obs.record(
                    "retry_wait", t0=time.time(), dur=delay,
                    sid=("retry_wait:"
                         + cell_span_id(workload, key, tag, next_attempt)),
                    workload=workload, spec=key, tag=tag,
                    attempt=next_attempt,
                )
            scheduler.push(normalized[i][0], (i,), next_attempt,
                           now + delay, now)
            return
        if kind == "worker-lost":
            # Last resort for a cell that keeps losing its worker: one
            # isolated in-parent attempt (immune to worker death).
            try:
                results[i] = _attempt_serial(i, next_attempt, normalized,
                                             config)
                return
            except Exception as final_exc:
                exc = final_exc
                next_attempt += 1
        results[i] = _fail(i, normalized, kind, next_attempt, exc)

    def lose_unit(unit, attempt: int, dispatched: float,
                  now: float) -> None:
        """Every cell of a pool-lost unit: log + reschedule."""
        for i in unit:
            workload, key, tag = cell_tag(i)
            faultlog.log_fault(faultlog.WORKER_LOST, workload=workload,
                               spec=key, tag=tag, attempt=attempt,
                               seconds=now - dispatched,
                               span=cell_span_id(workload, key, tag,
                                                 attempt))
            reschedule(i, attempt, "worker-lost", None, now)

    def unit_payload(unit, attempt):
        cells = tuple(normalized[i] for i in unit)
        entries = None
        if shared:
            entries = {workload: shared[workload]
                       for workload in dict.fromkeys(
                           normalized[i][0] for i in unit)
                       if workload in shared} or None
        return (cells, config, attempt, entries)

    def launch(now: float) -> None:
        busy = {entry[4] for entry in inflight.values()}
        for slot in range(window):
            if slot in busy or not len(scheduler):
                continue
            popped = scheduler.pop(slot, lane_home[slot], now)
            if popped is None:
                break  # nothing is ready anywhere (backoffs pending)
            (unit, attempt, _ready_at, enqueued), workload, steal_wait = \
                popped
            lane_home[slot] = workload
            payload = unit_payload(unit, attempt)
            if obs is not None and steal_wait is not None:
                obs.metrics.count("pool.steals")
                obs.metrics.observe("pool.steal_wait_seconds", steal_wait)
                obs.record(
                    "steal", t0=time.time(), dur=steal_wait,
                    sid=f"steal:{scheduler.steals}:{workload}",
                    workload=workload, attempt=attempt,
                    cells=len(unit), slot=slot,
                )
            # The scheduler-queue wait ends at the submit instant the
            # executor-queue wait starts from.
            submitted = time.time()
            queue_wait = max(time.monotonic() - enqueued, 0.0)
            try:
                future = executor.submit(_simulate_unit, payload)
            except Exception:
                # A worker died between the last wait and this submit:
                # the executor refuses new work.  Replace it and retry
                # the submission once on the fresh pool.
                replace_pool("pool broken at submit")
                future = executor.submit(_simulate_unit, payload)
            inflight[future] = (unit, attempt, now, queue_wait, slot,
                                steal_wait, submitted)

    launch(time.monotonic())
    # Overlap the non-picklable stragglers with the first wave.
    _run_serial(local, normalized, config, results, policy, obs)

    while len(scheduler) or inflight:
        now = time.monotonic()
        launch(now)
        waits = []
        next_ready = scheduler.next_ready_at(now)
        if next_ready is not None:
            waits.append(next_ready - now)
        if policy.timeout_seconds:
            waits += [entry[2] + budget(entry[0]) - now
                      for entry in inflight.values()]
        wait_for = max(0.005, min(waits)) if waits else None
        if not inflight:
            time.sleep(wait_for if wait_for is not None else 0.005)
            continue
        done, _ = wait(inflight, timeout=wait_for,
                       return_when=FIRST_COMPLETED)

        now = time.monotonic()
        broken = False
        merged: list = []
        for future in done:
            (unit, attempt, dispatched, queue_wait, _slot,
             steal_wait, submitted) = inflight.pop(future)
            try:
                outcomes, meta = future.result()
            except BrokenProcessPool:
                broken = True
                lose_unit(unit, attempt, dispatched, now)
                continue
            except Exception as exc:
                for i in unit:
                    reschedule(i, attempt, "error", exc, now)
                continue
            if obs is not None:
                # Worker counts go to the sweep's registry; the
                # parent's own process registry never sees them.
                obs.metrics.counters.update(meta["counters"])
                # The unit waited in the scheduler's queues until it
                # was submitted, then in the executor's queue until
                # its worker started it.
                queue_wait += max(meta["t0"] - submitted, 0.0)
                obs.metrics.observe("pool.queue_wait_seconds", queue_wait)
                lane = obs.lane_for(meta["pid"])
                unit_attrs = {"cells": len(unit),
                              "queue_seconds": round(queue_wait, 6)}
                if steal_wait is not None:
                    # The lane that executed the steal is only known
                    # now (worker pids surface with the result), so the
                    # stolen flag rides the unit span — pool_report and
                    # FabricObs.finish read it back per worker.
                    unit_attrs["stolen"] = True
                    unit_attrs["steal_wait_seconds"] = round(steal_wait, 6)
                # Worker-timed: the unit's queue wait is not busy time.
                obs.record(
                    "unit", t0=meta["t0"], dur=meta["dur"],
                    sid=f"unit:{'-'.join(map(str, unit))}@{attempt}",
                    worker=lane, workload=normalized[unit[0]][0],
                    attempt=attempt, **unit_attrs,
                )
                for span in meta["spans"]:
                    obs.record(
                        "cell", t0=span["t0"], dur=span["dur"],
                        sid=cell_span_id(span["workload"], span["spec"],
                                         span["tag"], span["attempt"]),
                        worker=lane, workload=span["workload"],
                        spec=span["spec"], tag=span["tag"],
                        attempt=span["attempt"],
                        parent=f"unit:{'-'.join(map(str, unit))}@{attempt}",
                        **{k: v for k, v in span.items()
                           if k in ("kernel", "instructions", "error")},
                    )
            for i, outcome in zip(unit, outcomes):
                if outcome[0] == "ok":
                    merged.append((i, outcome[1]))
                else:
                    # The cell failed inside its worker; unit-mates'
                    # results above are kept.  Retry it alone.
                    reschedule(i, attempt, "error",
                               RemoteCellError(outcome[1], outcome[2]),
                               now)
        if broken:
            # Every other in-flight future died with the pool; innocent
            # or not, each consumed an attempt (bounded — a cell that
            # reliably kills workers must not loop forever).
            for future, (unit, attempt, dispatched, *_rest) in list(
                    inflight.items()):
                lose_unit(unit, attempt, dispatched, now)
            inflight.clear()
            replace_pool("worker died mid-cell")
        elif policy.timeout_seconds:
            expired = [(future, entry) for future, entry in inflight.items()
                       if now - entry[2] > budget(entry[0])]
            if expired:
                # The only portable way to reclaim a hung worker is to
                # replace the whole pool; survivors resubmit with no
                # attempt penalty.
                survivors = [entry for future, entry in inflight.items()
                             if not any(future is f for f, _ in expired)]
                inflight.clear()
                for future, (unit, attempt, dispatched, *_rest) in expired:
                    for i in unit:
                        workload, key, tag = cell_tag(i)
                        faultlog.log_fault(
                            faultlog.CELL_TIMEOUT, workload=workload,
                            spec=key, tag=tag, attempt=attempt,
                            seconds=now - dispatched,
                            detail=f"timeout={policy.timeout_seconds}s",
                            span=cell_span_id(workload, key, tag, attempt),
                        )
                        reschedule(i, attempt, "timeout", None, now)
                for unit, attempt, *_rest in survivors:
                    scheduler.push(normalized[unit[0]][0], unit, attempt,
                                   now, now)
                replace_pool("hung worker replaced")

        # Submit replacements before merging, so workers never idle
        # while the parent merges.
        launch(time.monotonic())
        merge_started = time.perf_counter()
        merge_wall = time.time()
        for i, result in merged:
            results[i] = result
        batch_seconds = time.perf_counter() - merge_started
        merge_seconds += batch_seconds
        if obs is not None and merged:
            obs.record("merge", t0=merge_wall, dur=batch_seconds,
                       cells=len(merged))
    return merge_seconds
