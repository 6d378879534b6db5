"""Persistent on-disk cache of :class:`SimulationResult` objects.

The in-process memo of :class:`~repro.experiments.runner.ExperimentRunner`
dies with the interpreter, so every ``report_all`` invocation used to
repay the full (workload x prefetcher) simulation matrix.  This module
extends the PR-1 manifest content-hash idea into a read-through store:

* **Key** — ``(workload, spec key, config digest, config tag, code
  version)``.  The config digest hashes the frozen ``SystemConfig``
  (``repr`` of nested frozen dataclasses is stable); the code version
  hashes the source of every package that builds or simulates a cell
  (ISA, engine, memory system, prefetchers, workload generators, and
  the experiments, whose ``SpecFactory`` builders assemble the
  prefetchers of their cells).  It does not hash the interpreter, numpy,
  or the packages that only move results around (``parallel``,
  ``faults``, ``telemetry``, ``obs``, ``analysis``); an edit there that
  changes a number needs ``repro cache clear``.
* **Layout** — ``<root>/<code_version>/<workload>__<spec>__<digest>.pkl``
  (default root ``runs/cache``).  Grouping by code version makes the
  invalidation story inspectable: entries written by older simulator
  code sit in other directories and simply never match.
* **Invalidation** — stale versions are never read; ``repro cache stats``
  counts them and ``repro cache clear --stale`` (or ``clear``) deletes
  them.  Corrupt or unreadable entries behave as misses.
* **Counters** — every probe and store counts ``result_cache.disk_hit``/
  ``disk_miss``/``corrupt``/``put`` in the process metrics registry
  (:mod:`repro.obs.metrics`).

Entries are pickles of simulation results produced by this repository's
own code; like any pickle store, the cache directory should not be
shared with untrusted writers.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from pathlib import Path

from repro.obs.metrics import PROCESS

CACHE_VERSION = 1
DEFAULT_CACHE_DIR = "runs/cache"

_SIM_SOURCE_PACKAGES = (
    "isa",
    "engine",
    "memory",
    "core",
    "baselines",
    "workloads",
    "experiments",
)
_SIM_SOURCE_MODULES = ("prefetcher_registry.py",)

_code_version_cache: str | None = None


def digest_sources(paths, salt: str) -> str:
    """sha1 over ``salt`` plus the package-relative path and bytes of
    every file, sorted.

    Shared keying scheme for every code-versioned cache in the repo (the
    result cache here and the trace cache in
    :mod:`repro.workloads.tracecache`): editing any covered source file —
    committed or not — changes the digest and thereby orphans stale
    entries wholesale.

    Paths are digested relative to the ``repro`` package root (bare
    ``path.name`` would let a file *move* between covered packages —
    say ``core/`` to ``engine/`` — without changing the digest, leaving
    stale cache entries live); files outside the package fall back to
    their name.
    """
    root = Path(__file__).resolve().parent
    digest = hashlib.sha1(salt.encode())
    for path in sorted(Path(p) for p in paths):
        try:
            label = path.resolve().relative_to(root).as_posix()
        except ValueError:
            label = path.name
        digest.update(label.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def sim_source_paths() -> list[Path]:
    """Every source file that can influence a simulation result."""
    root = Path(__file__).resolve().parent
    paths: list[Path] = []
    for package in _SIM_SOURCE_PACKAGES:
        paths.extend((root / package).glob("*.py"))
    paths.extend(root / module for module in _SIM_SOURCE_MODULES)
    return paths


def code_version() -> str:
    """Digest of every source file that can influence a simulation result.

    Unlike a git SHA this changes only when simulator code changes (docs
    and analysis edits keep the cache warm) and it tracks a dirty working
    tree, which a commit hash cannot.
    """
    global _code_version_cache
    if _code_version_cache is None:
        _code_version_cache = digest_sources(
            sim_source_paths(), f"cache-v{CACHE_VERSION}"
        )
    return _code_version_cache


def config_digest(config) -> str:
    """Stable digest of a (frozen, nested-dataclass) ``SystemConfig``."""
    return hashlib.sha1(repr(config).encode()).hexdigest()[:16]


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "x"


class ResultCache:
    """Read-through pickle store for simulation results."""

    def __init__(self, root=DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    def entry_path(self, workload: str, spec: str, tag: str,
                   cfg_digest: str) -> Path:
        content = hashlib.sha1(
            f"{workload}\x00{spec}\x00{tag}\x00{cfg_digest}".encode()
        ).hexdigest()[:16]
        name = f"{_slug(workload)}__{_slug(spec)}__{content}.pkl"
        return self.root / code_version() / name

    def get(self, workload: str, spec: str, tag: str, cfg_digest: str):
        """Cached result or ``None``; unreadable entries count as misses."""
        path = self.entry_path(workload, spec, tag, cfg_digest)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
            PROCESS.count("result_cache.disk_hit")
            return result
        except FileNotFoundError:
            PROCESS.count("result_cache.disk_miss")
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError) as exc:
            # A torn write or an entry from an incompatible class layout:
            # drop it so the next put() rewrites a good one, and leave a
            # fault-log record so the degradation is auditable.
            from repro.faults import CACHE_CORRUPT, log_fault

            log_fault(CACHE_CORRUPT, workload=workload, spec=spec, tag=tag,
                      detail=f"{type(exc).__name__}: {path.name}")
            PROCESS.count("result_cache.corrupt")
            path.unlink(missing_ok=True)
            return None

    def put(self, workload: str, spec: str, tag: str, cfg_digest: str,
            result) -> Path:
        """Serialize ``result`` via the shared pid-keyed atomic-write
        helper, so parallel writers of the same key — same process or
        not — cannot tear each other's entries."""
        from repro.faults import atomic_write_pickle

        path = self.entry_path(workload, spec, tag, cfg_digest)
        PROCESS.count("result_cache.put")
        return atomic_write_pickle(
            path, result, label=f"result:{workload}/{spec}:{tag}"
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Entry/byte counts, split current code version vs stale."""
        current = code_version()
        report = {
            "root": str(self.root),
            "code_version": current,
            "entries": 0,
            "bytes": 0,
            "stale_entries": 0,
            "stale_bytes": 0,
            "stale_versions": [],
            "by_workload": {},
        }
        if not self.root.is_dir():
            return report
        for version_dir in sorted(self.root.iterdir()):
            if not version_dir.is_dir():
                continue
            entries = list(version_dir.glob("*.pkl"))
            size = sum(p.stat().st_size for p in entries)
            if version_dir.name == current:
                report["entries"] = len(entries)
                report["bytes"] = size
                for path in entries:
                    workload = path.name.split("__", 1)[0]
                    report["by_workload"][workload] = (
                        report["by_workload"].get(workload, 0) + 1
                    )
            else:
                report["stale_entries"] += len(entries)
                report["stale_bytes"] += size
                report["stale_versions"].append(version_dir.name)
        return report

    def clear(self, stale_only: bool = False) -> int:
        """Delete entries (all, or only stale code versions); returns the
        number of files removed."""
        if not self.root.is_dir():
            return 0
        current = code_version()
        removed = 0
        for version_dir in sorted(self.root.iterdir()):
            if not version_dir.is_dir():
                continue
            if stale_only and version_dir.name == current:
                continue
            for path in version_dir.glob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
            try:
                version_dir.rmdir()
            except OSError:
                pass
        return removed
