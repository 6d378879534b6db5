"""Zero-copy trace sharing over named shared-memory segments.

Fork-COW trace sharing (PR 3) had two structural problems: it only
works under the ``fork`` start method, and it only covers traces that
were warm *before* the pool forked — a worker that needed anything else
re-deserialized the on-disk cache entry, paying a full column copy per
worker.  This module replaces both with explicit shared memory:

* **Publish** (parent, once per workload) — every numpy column of a
  :class:`~repro.isa.trace.CompiledTrace` is copied into one named
  ``multiprocessing.shared_memory`` segment: the ten primary columns
  (:data:`~repro.isa.trace.TRACE_FIELDS`), the four derived columns,
  the segment-event positions, and the memory image as aligned
  address/value arrays.  The picklable :class:`SharedTrace` entry
  (segment name + per-field dtype/offset/length) is all that crosses
  the process boundary.
* **Attach** (worker, once per segment) — :func:`attach` opens the
  segment and rebuilds the trace as ``numpy.frombuffer`` views into
  the shared buffer: zero copies, O(1) in trace size, identical under
  ``fork`` and ``spawn``.  :func:`install` adopts the attached traces
  into the workload registry so ``simulate_spec`` finds them through
  the normal memo path; a fork-inherited memo always wins (it carries
  the parent's memoized replay plans).
* **Lifecycle** — the parent keeps a manifest of everything it
  published (:func:`manifest_names`).  Segments are unlinked exactly
  once: explicitly via :func:`release_all` (``run_jobs`` calls it when
  a ``KeyboardInterrupt``/``SystemExit`` unwinds a sweep) or by the
  ``atexit`` hook registered on first publish.  Every pool worker
  shares the parent's resource tracker: ``repro.parallel`` starts it
  before it creates the pool, fork workers inherit it, and spawn and
  forkserver workers are handed its pipe.  A worker's attach registers
  the segment name with that one tracker, where the parent's publish
  already registered it, so a chaos-killed worker takes no segment
  down with it and the parent's unlink is the one unregister.

``REPRO_SHM=0`` disables publication entirely (workers fall back to
fork-COW memos or the on-disk trace cache); ``REPRO_MP_CONTEXT``
selects the pool start method (``fork`` default, ``spawn`` — which this
module is what makes viable — or ``forkserver``).
"""

from __future__ import annotations

import atexit
import os
import re
from dataclasses import dataclass

from repro.isa.trace import (
    DERIVED_FIELDS,
    TRACE_FIELDS,
    CompiledTrace,
)
from repro.obs.metrics import PROCESS

SHM_ENV = "REPRO_SHM"
MP_CONTEXT_ENV = "REPRO_MP_CONTEXT"

_SIGNED_64_MIN = -(1 << 63)
_SIGNED_64_MAX = (1 << 63) - 1

_ALIGN = 8

#: Field names inside a segment beyond the primary columns.
_DERIVED_PREFIX = "derived."
_SEGMENTS_FIELD = "segments"
_MEMORY_ADDR_FIELD = "memory_addr"
_MEMORY_VAL_FIELD = "memory_val"


@dataclass(frozen=True)
class SharedTrace:
    """Picklable manifest entry describing one published trace segment."""

    workload: str        # registry name the trace belongs to
    trace_name: str      # CompiledTrace.name (== workload in practice)
    segment: str         # shared-memory segment name
    nbytes: int          # total segment size
    fields: tuple        # ((field, dtype, offset, length), ...)


# Parent side: workload -> (SharedTrace, SharedMemory handle).
_PUBLISHED: dict[str, tuple] = {}
# Worker side: segment name -> (SharedMemory handle, CompiledTrace).
_ATTACHED: dict[str, tuple] = {}
_SEQ = 0
_ATEXIT_REGISTERED = False


def _np():
    import numpy

    return numpy


def enabled() -> bool:
    """Shared-memory publication on? (``REPRO_SHM=0`` disables.)"""
    return os.environ.get(SHM_ENV) != "0"


def mp_context_name() -> str:
    """Pool start method from ``REPRO_MP_CONTEXT`` (default ``fork``)."""
    name = os.environ.get(MP_CONTEXT_ENV)
    if name in ("fork", "spawn", "forkserver"):
        return name
    return "fork"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "trace"


# ----------------------------------------------------------------------
# Parent side: publish + manifest + unlink
# ----------------------------------------------------------------------
def publish(workload: str, trace: CompiledTrace) -> SharedTrace | None:
    """Publish ``trace``'s columns into a named segment (idempotent).

    Returns the manifest entry, or ``None`` when shared memory is
    disabled or the memory image holds values outside signed 64-bit
    range (the same traces the on-disk cache refuses: workers rebuild
    those through the normal cache path instead).  A second publish of
    the same workload reuses the existing segment.
    """
    if not enabled():
        return None
    existing = _PUBLISHED.get(workload)
    if existing is not None:
        return existing[0]
    memory = trace.memory
    for address, value in memory.items():
        if not (_SIGNED_64_MIN <= value <= _SIGNED_64_MAX
                and 0 <= address <= _SIGNED_64_MAX):
            return None
    np = _np()
    columns: list[tuple[str, object]] = list(
        zip(TRACE_FIELDS, trace.array_columns()))
    columns.extend(zip((_DERIVED_PREFIX + f for f in DERIVED_FIELDS),
                       trace.derived_arrays()))
    columns.append((_SEGMENTS_FIELD, trace.segment_events()))
    columns.append((_MEMORY_ADDR_FIELD,
                    np.fromiter(memory.keys(), dtype=np.int64,
                                count=len(memory))))
    columns.append((_MEMORY_VAL_FIELD,
                    np.fromiter(memory.values(), dtype=np.int64,
                                count=len(memory))))

    fields = []
    prepared = []
    offset = 0
    for field_name, column in columns:
        column = np.ascontiguousarray(column)
        fields.append((field_name, str(column.dtype), offset, len(column)))
        prepared.append((offset, column))
        offset += -(-column.nbytes // _ALIGN) * _ALIGN

    from multiprocessing import shared_memory

    global _SEQ, _ATEXIT_REGISTERED
    _SEQ += 1
    segment = f"repro-{os.getpid()}-{_SEQ}-{_slug(workload)[:40]}"
    handle = shared_memory.SharedMemory(name=segment, create=True,
                                        size=max(offset, 1))
    for off, column in prepared:
        if len(column):
            view = np.frombuffer(handle.buf, dtype=column.dtype,
                                 count=len(column), offset=off)
            view[:] = column
    entry = SharedTrace(workload=workload, trace_name=trace.name,
                        segment=segment, nbytes=handle.size,
                        fields=tuple(fields))
    _PUBLISHED[workload] = (entry, handle)
    if not _ATEXIT_REGISTERED:
        atexit.register(release_all)
        _ATEXIT_REGISTERED = True
    PROCESS.count("trace_cache.shm_publishes")
    return entry


def published() -> dict[str, SharedTrace]:
    """Manifest snapshot: workload -> :class:`SharedTrace` entry."""
    return {workload: entry for workload, (entry, _) in _PUBLISHED.items()}


def manifest_names() -> list[str]:
    """Segment names this process currently owns (the leak oracle the
    lifecycle tests assert against — empty means nothing to unlink)."""
    return sorted(entry.segment for entry, _ in _PUBLISHED.values())


def entries_for(workloads) -> dict[str, SharedTrace]:
    """The manifest entries covering ``workloads`` (missing ones skipped)."""
    entries = {}
    for workload in workloads:
        published_entry = _PUBLISHED.get(workload)
        if published_entry is not None:
            entries[workload] = published_entry[0]
    return entries


def release(workload: str) -> bool:
    """Unlink one workload's segment; ``True`` if one was published."""
    item = _PUBLISHED.pop(workload, None)
    if item is None:
        return False
    _, handle = item
    _close_and_unlink(handle)
    return True


def release_all() -> int:
    """Unlink every published segment (idempotent); returns the count.

    Safe while workers are still attached: POSIX keeps the mapping
    alive for them until they unmap, only the name disappears.
    """
    released = 0
    for workload in list(_PUBLISHED):
        if release(workload):
            released += 1
    return released


def _close_and_unlink(handle) -> None:
    try:
        handle.close()
    except Exception:
        pass
    try:
        handle.unlink()
    except FileNotFoundError:
        pass
    except Exception:
        pass


# ----------------------------------------------------------------------
# Worker side: attach + adopt
# ----------------------------------------------------------------------
def attach(entry: SharedTrace) -> CompiledTrace:
    """Open ``entry``'s segment and rebuild its trace as zero-copy views.

    Memoized per segment name, so a worker attaches each trace once no
    matter how many units replay it.  Raises ``FileNotFoundError`` when
    the segment was already unlinked (stale entry).
    """
    cached = _ATTACHED.get(entry.segment)
    if cached is not None:
        return cached[1]
    from multiprocessing import shared_memory

    np = _np()
    handle = shared_memory.SharedMemory(name=entry.segment, create=False)
    views = {}
    for field_name, dtype, offset, length in entry.fields:
        views[field_name] = np.frombuffer(handle.buf, dtype=dtype,
                                          count=length, offset=offset)
    trace = CompiledTrace.from_shared(
        entry.trace_name,
        tuple(views[f] for f in TRACE_FIELDS),
        tuple(views[_DERIVED_PREFIX + f] for f in DERIVED_FIELDS),
        views[_SEGMENTS_FIELD],
        (views[_MEMORY_ADDR_FIELD], views[_MEMORY_VAL_FIELD]),
    )
    _ATTACHED[entry.segment] = (handle, trace)
    PROCESS.count("trace_cache.shm_attaches")
    return trace


def install(entries: dict[str, SharedTrace]) -> int:
    """Adopt shared traces into this process's workload registry.

    Runs at the top of every worker unit: for each entry whose workload
    has no trace memo yet (fork-inherited memos win — they carry the
    parent's replay plans), attach the segment and install the view as
    the memo.  Unknown names (dynamic fuzz workloads under ``spawn``)
    are registered as stubs, so the registry lookup inside
    ``simulate_spec`` succeeds without the builder.  Returns how many
    traces were adopted.
    """
    if not entries:
        return 0
    from repro.workloads import registry

    adopted = 0
    for workload, entry in entries.items():
        if registry.has_trace_memo(workload):
            continue
        if registry.adopt_compiled_trace(workload, attach(entry)):
            adopted += 1
    return adopted
