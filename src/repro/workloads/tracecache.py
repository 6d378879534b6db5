"""Persistent on-disk cache of compiled workload traces.

Functional trace generation is deterministic but not free: every process
(and, before this cache existed, every *worker* process) used to re-run
the :class:`~repro.isa.machine.Machine` over each workload it touched.
This module persists the compiled columnar form
(:class:`~repro.isa.trace.CompiledTrace`) so a trace is built **once per
builder-code version**, ever, per machine:

* **Key** — workload name + simpoint + ``trace_code_version()``, a sha1
  over every source file that can change what the machine emits (the
  whole ``repro.isa`` package and the ``repro.workloads`` package,
  builders included).  This mirrors :mod:`repro.resultcache`'s
  code-version scheme and shares its digest helper.
* **Layout** — ``<root>/<trace_code_version>/<workload>__<simpoint>.trace``
  (default root ``runs/traces``; override with the ``REPRO_TRACE_CACHE``
  environment variable, empty string disables the cache).
* **Format** — a pickled dict of per-column ``bytes`` blobs produced by
  :meth:`CompiledTrace.column_bytes`, the derived columns from
  :meth:`CompiledTrace.derived_bytes` (format 2), the
  segment-event positions from :meth:`CompiledTrace.segment_bytes`
  (format 3), plus the memory image as two ``array('q')`` blobs.
  Loading is one zero-copy ``numpy.frombuffer`` view per column — no
  per-record Python loop and no ``tolist`` round-trip.
* **Invalidation** — entries from other code versions sit in their own
  directories and are never read; ``repro cache stats`` counts them and
  ``repro cache clear --stale`` deletes them.  Corrupt entries behave as
  misses.

:func:`trace_counters` reads this process's ``trace_cache.*`` counts
from the process metrics registry (:mod:`repro.obs.metrics`): how many
traces were actually generated here (``builds`` — a warm
``report_all`` run must show zero), loaded, published to and attached
from shared memory, and how many derived-column passes ran.
"""

from __future__ import annotations

import os
import pickle
import re
from array import array
from pathlib import Path

from repro.isa.trace import CompiledTrace
from repro.obs.metrics import PROCESS

# Version 3: columns restore as numpy arrays (no tolist round-trip) and
# entries carry the precomputed segment-event positions alongside
# the derived columns (line/mpc/disp/bp_miss, see
# repro.isa.trace.DERIVED_FIELDS).  The version salts
# trace_code_version(), so bumping it moves the cache to a fresh
# directory and older-format entries become stale wholesale; an entry
# from another format that is nonetheless reached (e.g. a hand-moved
# file) is dropped and counted as ``cache_stale_format``.
TRACE_CACHE_VERSION = 3
DEFAULT_TRACE_CACHE_DIR = "runs/traces"
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

_SIGNED_64_MIN = -(1 << 63)
_SIGNED_64_MAX = (1 << 63) - 1

_trace_code_version_cache: str | None = None

TRACE_COUNTERS = ("builds", "disk_hits", "memory_hits",
                  "cache_stale_format",
                  # Shared-memory column sharing (repro.parallel.shm):
                  # segments published by this process (parent side)
                  # and zero-copy attaches performed (worker side).
                  "shm_publishes", "shm_attaches",
                  # Derived-column passes and restores (repro.isa.trace).
                  "derived_builds", "derived_hits")


def trace_counters() -> dict:
    """This process's ``trace_cache.<key>`` counts, one per
    :data:`TRACE_COUNTERS` key (``repro cache stats`` prints them)."""
    counters = PROCESS.counters
    return {key: counters[f"trace_cache.{key}"] for key in TRACE_COUNTERS}


def trace_code_paths() -> list[Path]:
    """Every source file that can change a generated trace: the
    functional substrate (``repro.isa``: machine, ISA, assembler) and
    the workload definitions (``repro.workloads``: builders, suites,
    registry, the fuzz generator, this module)."""
    here = Path(__file__).resolve().parent
    return [*here.glob("*.py"), *(here.parent / "isa").glob("*.py")]


def trace_code_version() -> str:
    """Digest of :func:`trace_code_paths`.  Editing any of them —
    committed or not — orphans every cached trace."""
    global _trace_code_version_cache
    if _trace_code_version_cache is None:
        from repro.resultcache import digest_sources

        _trace_code_version_cache = digest_sources(
            trace_code_paths(), f"trace-cache-v{TRACE_CACHE_VERSION}"
        )
    return _trace_code_version_cache


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "x"


def default_root() -> str | None:
    """Cache root honoring ``REPRO_TRACE_CACHE`` (empty = disabled)."""
    root = os.environ.get(TRACE_CACHE_ENV)
    if root is None:
        return DEFAULT_TRACE_CACHE_DIR
    return root or None


class TraceCache:
    """Read-through store of compiled traces, keyed by builder code."""

    def __init__(self, root: str | None = None) -> None:
        if root is None:
            root = default_root()
        self.root = Path(root) if root else None

    @property
    def enabled(self) -> bool:
        return self.root is not None

    # ------------------------------------------------------------------
    def entry_path(self, name: str, simpoint: int) -> Path:
        return (self.root / trace_code_version()
                / f"{_slug(name)}__{simpoint}.trace")

    def get(self, name: str, simpoint: int) -> CompiledTrace | None:
        """Cached compiled trace or ``None``; corrupt entries are misses."""
        if self.root is None:
            return None
        path = self.entry_path(name, simpoint)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if payload["format"] != TRACE_CACHE_VERSION:
                # A stale-format entry inside the *current* version
                # directory (format bump without a code change, or a
                # hand-moved file): drop it with attribution instead of
                # silently rebuilding over it forever.
                PROCESS.count("trace_cache.cache_stale_format")
                from repro.faults import CACHE_CORRUPT, log_fault

                log_fault(CACHE_CORRUPT, workload=name,
                          detail=(f"stale format {payload['format']} "
                                  f"(want {TRACE_CACHE_VERSION}): "
                                  f"{path.name}"))
                path.unlink(missing_ok=True)
                return None
            addresses = array("q")
            addresses.frombytes(payload["memory_addr"])
            values = array("q")
            values.frombytes(payload["memory_val"])
            memory = dict(zip(addresses.tolist(), values.tolist()))
            return CompiledTrace.from_column_bytes(
                payload["name"], payload["columns"], memory,
                derived=payload.get("derived"),
                segments=payload.get("segments"),
            )
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, KeyError,
                ValueError, TypeError) as exc:
            # Torn write or incompatible payload: drop and rebuild.
            from repro.faults import CACHE_CORRUPT, log_fault

            log_fault(CACHE_CORRUPT, workload=name,
                      detail=f"{type(exc).__name__}: {path.name}")
            path.unlink(missing_ok=True)
            return None

    def put(self, trace: CompiledTrace, simpoint: int) -> Path | None:
        """Serialize ``trace``; atomic rename so concurrent builders of
        the same workload cannot tear each other's entries.

        Returns ``None`` (entry skipped) when the cache is disabled or
        the memory image holds a value outside signed 64-bit range — the
        columnar format could not round-trip it bit-identically.
        """
        if self.root is None:
            return None
        memory = trace.memory
        for address, value in memory.items():
            if not (_SIGNED_64_MIN <= value <= _SIGNED_64_MAX
                    and 0 <= address <= _SIGNED_64_MAX):
                return None
        payload = {
            "format": TRACE_CACHE_VERSION,
            "name": trace.name,
            "simpoint": simpoint,
            "columns": trace.column_bytes(),
            "derived": trace.derived_bytes(),
            "segments": trace.segment_bytes(),
            "memory_addr": array("q", memory.keys()).tobytes(),
            "memory_val": array("q", memory.values()).tobytes(),
        }
        from repro.faults import atomic_write_pickle

        path = self.entry_path(trace.name, simpoint)
        return atomic_write_pickle(path, payload,
                                   label=f"trace:{trace.name}")

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Entry/byte counts split current vs stale, plus the process's
        build counters."""
        report = {
            "root": str(self.root) if self.root else "(disabled)",
            "trace_code_version": trace_code_version(),
            "entries": 0,
            "bytes": 0,
            "stale_entries": 0,
            "stale_bytes": 0,
            "stale_versions": [],
            "counters": trace_counters(),
        }
        if self.root is None or not self.root.is_dir():
            return report
        current = trace_code_version()
        for version_dir in sorted(self.root.iterdir()):
            if not version_dir.is_dir():
                continue
            entries = list(version_dir.glob("*.trace"))
            size = sum(p.stat().st_size for p in entries)
            if version_dir.name == current:
                report["entries"] = len(entries)
                report["bytes"] = size
            else:
                report["stale_entries"] += len(entries)
                report["stale_bytes"] += size
                report["stale_versions"].append(version_dir.name)
        return report

    def clear(self, stale_only: bool = False) -> int:
        """Delete entries (all, or only stale builder versions)."""
        if self.root is None or not self.root.is_dir():
            return 0
        current = trace_code_version()
        removed = 0
        for version_dir in sorted(self.root.iterdir()):
            if not version_dir.is_dir():
                continue
            if stale_only and version_dir.name == current:
                continue
            for path in version_dir.glob("*.trace"):
                path.unlink(missing_ok=True)
                removed += 1
            try:
                version_dir.rmdir()
            except OSError:
                pass
        return removed
