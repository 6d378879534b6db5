"""Shared experiment runner with in-process and on-disk result caching.

Most figures reuse the same (workload, prefetcher) simulations — e.g. the
no-prefetch baseline of every workload appears in every metric — so the
runner memoizes :class:`~repro.engine.system.SimulationResult` objects
keyed by workload, prefetcher spec, and configuration tag.

Two optional layers extend the in-process memo:

* ``cache_dir`` — a persistent read-through store
  (:mod:`repro.resultcache`): warm re-runs of ``report_all`` skip
  simulation entirely.  Keys include a digest of the simulator sources,
  so editing engine/prefetcher code invalidates stale entries.
* ``jobs`` — the default worker count for :meth:`prefill`, which fans
  independent matrix cells out across a **persistent** process pool
  (:mod:`repro.parallel`, reused across prefill calls) with results
  bit-identical to serial runs.  Workloads themselves resolve through
  the compiled-trace cache (:mod:`repro.workloads.tracecache`), so
  neither the parent nor any worker rebuilds a functional trace that
  the current builder code has generated before.
* ``journal_dir`` — a resumable-matrix journal
  (:class:`repro.faults.MatrixJournal`): every completed cell is
  recorded under the result-cache key scheme, so an interrupted matrix
  resumed with the same cache and journal performs **zero**
  re-simulations of completed cells (counted as ``resume_hits``).
  Failed cells land in the journal too, for post-mortems.

Fan-out is fault-isolated (docs/robustness.md): a cell that exhausts
its retries surfaces as a :class:`repro.faults.CellFailure`, is counted
under ``failed_cells``, journaled, and **skipped** — the rest of the
matrix completes.  A later :meth:`run` of that cell simulates serially
and raises the real exception in context.

With ``runs_dir`` set, every fresh (non-cached) simulation also writes a
provenance manifest to ``<runs_dir>/<run_id>/manifest.json`` (see
:mod:`repro.telemetry.manifest`).
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Iterable

from repro.analysis.credit import replay
from repro.core.base import Prefetcher
from repro.engine.config import SystemConfig, EXPERIMENT_CONFIG
from repro.engine.system import SimulationResult, simulate
from repro.prefetcher_registry import make_prefetcher
from repro.resultcache import ResultCache, config_digest
from repro.workloads import get_workload

PrefetcherSpec = str | Callable[[], Prefetcher]
"""Either a registry name or a zero-argument factory."""


def resolve_spec(spec: PrefetcherSpec) -> tuple[str, Prefetcher | None]:
    """Stable cache key for a spec, plus the instance if keying built one.

    Resolution order: registry name as-is, an explicit ``cache_key``
    attribute, then the factory's ``__name__``.  Anonymous factories
    (lambdas, partials) fall back to a descriptor of what they *build* —
    class, display name, and storage budget — hashed into a short
    digest.  Only that last case constructs a prefetcher; the built
    instance is returned so callers never construct twice for one run
    (simulation ``reset()``s it anyway).
    """
    if isinstance(spec, str):
        return spec, None
    key = getattr(spec, "cache_key", None)
    if key is not None:
        return key, None
    name = getattr(spec, "__name__", "")
    if name and name != "<lambda>":
        return name, None
    built = spec()
    descriptor = (
        type(built).__module__,
        type(built).__qualname__,
        built.name,
        built.storage_bits,
    )
    digest = hashlib.sha1(repr(descriptor).encode()).hexdigest()[:10]
    return f"{built.name}@{digest}", built


def spec_key(spec: PrefetcherSpec) -> str:
    """Stable cache key for a prefetcher spec (see :func:`resolve_spec`)."""
    return resolve_spec(spec)[0]


class SpecFactory:
    """Picklable prefetcher factory: a module-level builder plus kwargs.

    Closure factories (``lambda: make_tpc(...)``) carry stable
    ``cache_key`` attributes but cannot cross a process boundary, which
    silently demotes their cells to the serial fallback of
    :mod:`repro.parallel`.  Wrapping the builder *function* (pickled by
    qualified name) and its keyword arguments instead keeps the whole
    experiment matrix eligible for fan-out.  Instances behave exactly
    like the closures they replace: callable, with the same cache key.
    """

    __slots__ = ("cache_key", "builder", "kwargs")

    def __init__(self, cache_key: str, builder: Callable[..., Prefetcher],
                 **kwargs) -> None:
        self.cache_key = cache_key
        self.builder = builder
        self.kwargs = kwargs

    def __call__(self) -> Prefetcher:
        return self.builder(**self.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpecFactory({self.cache_key!r})"


def build_prefetcher(spec: PrefetcherSpec) -> Prefetcher:
    if isinstance(spec, str):
        return make_prefetcher(spec)
    return spec()


def simulate_spec(workload: str, spec: PrefetcherSpec, tag: str,
                  config: SystemConfig) -> SimulationResult:
    """One uncached simulation of a (workload, spec, tag) cell.

    This is the single simulation path shared by the serial runner and
    the parallel workers, which is what makes ``--jobs N`` results
    bit-identical to serial runs.
    """
    key, built = resolve_spec(spec)
    if built is None:
        built = build_prefetcher(spec)
    trace = get_workload(workload).trace()
    return simulate(trace, built, config, config_tag=tag, spec=key)


class ExperimentRunner:
    """Caches single-core simulation results.

    Parameters
    ----------
    runs_dir:
        Optional; turns on manifest serialization — each fresh simulation
        writes ``<runs_dir>/<run_id>/manifest.json``.
    cache_dir:
        Optional; persistent result cache directory (read-through, shared
        across processes and invocations).
    jobs:
        Default worker count for :meth:`prefill`; ``1`` keeps everything
        serial and ``0`` means one worker per CPU.
    journal_dir:
        Optional; resumable-matrix journal directory (pairs with
        ``cache_dir`` — the journal stores completion keys, the cache
        stores the payloads).
    retry:
        Optional :class:`repro.faults.RetryPolicy` for :meth:`prefill`
        fan-out (default: from the environment).
    obs:
        Optional :class:`repro.obs.FabricObs`; traces cache gets/puts,
        journal-resume hits, and fresh serial simulations as spans, and
        threads through :meth:`prefill` fan-out.  ``None`` (the
        default) executes the exact unobserved code path.
    """

    def __init__(self, config: SystemConfig | None = None,
                 runs_dir=None, cache_dir=None, jobs: int = 1,
                 journal_dir=None, retry=None, obs=None) -> None:
        self.config = config or EXPERIMENT_CONFIG
        self.runs_dir = runs_dir
        self.jobs = jobs
        self.retry = retry
        self.obs = obs
        self.disk = ResultCache(cache_dir) if cache_dir else None
        self._config_digest = config_digest(self.config)
        if journal_dir:
            from repro.faults import MatrixJournal

            self.journal = MatrixJournal(journal_dir, self._config_digest)
        else:
            self.journal = None
        self._cache: dict[tuple[str, str, str], SimulationResult] = {}
        self.counters = {"simulated": 0, "memory_hits": 0, "disk_hits": 0,
                         "resume_hits": 0, "failed_cells": 0}

    def _record(self, result: SimulationResult) -> None:
        if self.runs_dir is not None and result.manifest is not None:
            from repro.telemetry.manifest import write_manifest

            write_manifest(result.manifest, self.runs_dir)

    def _store(self, key: tuple[str, str, str],
               result: SimulationResult) -> None:
        """A freshly simulated result enters every cache layer."""
        self._cache[key] = result
        self.counters["simulated"] += 1
        self._record(result)
        if self.disk is not None:
            if self.obs is None:
                self.disk.put(key[0], key[1], key[2], self._config_digest,
                              result)
            else:
                with self.obs.span("cache_put", workload=key[0],
                                   spec=key[1], tag=key[2]):
                    self.disk.put(key[0], key[1], key[2],
                                  self._config_digest, result)
        if self.journal is not None:
            self.journal.record_ok(
                *key, kernel=getattr(result, "kernel", "generic"))

    def _disk_get(self, key: tuple[str, str, str]
                  ) -> SimulationResult | None:
        if self.disk is None:
            return None
        if self.obs is None:
            result = self.disk.get(key[0], key[1], key[2],
                                   self._config_digest)
        else:
            with self.obs.span("cache_get", workload=key[0], spec=key[1],
                               tag=key[2]) as extra:
                result = self.disk.get(key[0], key[1], key[2],
                                       self._config_digest)
                extra["hit"] = result is not None
        if result is not None:
            self._cache[key] = result
            self.counters["disk_hits"] += 1
            if self.journal is not None and self.journal.has(key):
                # A journaled cell served from the cache: the resume
                # contract (zero re-simulations) at work, made visible.
                from repro.faults import RESUME_HIT, log_fault
                from repro.obs import cell_span_id

                self.counters["resume_hits"] += 1
                log_fault(RESUME_HIT, workload=key[0], spec=key[1],
                          tag=key[2], span=cell_span_id(*key, 0))
                if self.obs is not None:
                    self.obs.record(
                        "journal_resume", t0=time.time(), dur=0.0,
                        sid=f"journal_resume:{key[0]}/{key[1]}"
                            + (f"#{key[2]}" if key[2] else ""),
                        workload=key[0], spec=key[1], tag=key[2],
                    )
                    self.obs.metrics.count("runner.resume_hits")
        return result

    def run(self, workload: str, prefetcher: PrefetcherSpec = "none",
            tag: str = "") -> SimulationResult:
        """Simulate (cached).  ``tag`` distinguishes config variants."""
        return self._cell(workload, prefetcher, tag)

    def _cell(self, workload: str, prefetcher: PrefetcherSpec,
              tag: str) -> SimulationResult:
        """The memo / disk / simulate lookup behind :meth:`run` and
        :meth:`run_tracked`."""
        key_spec, built = resolve_spec(prefetcher)
        key = (workload, key_spec, tag)
        cached = self._cache.get(key)
        if cached is not None:
            self.counters["memory_hits"] += 1
            if self.obs is not None:
                self.obs.metrics.count("runner.memory_hits")
            return cached
        cached = self._disk_get(key)
        if cached is not None:
            return cached
        if built is None:
            built = build_prefetcher(prefetcher)
        trace = get_workload(workload).trace()
        if self.obs is None:
            result = simulate(trace, built, self.config,
                              config_tag=tag, spec=key_spec)
        else:
            from repro.obs import cell_span_id

            with self.obs.span("cell",
                               sid=cell_span_id(workload, key_spec, tag, 0),
                               workload=workload, spec=key_spec,
                               tag=tag) as extra:
                result = simulate(trace, built, self.config,
                                  config_tag=tag, spec=key_spec)
                extra["kernel"] = getattr(result, "kernel", "generic")
                extra["instructions"] = result.core.instructions
        self._store(key, result)
        return result

    def prefill(self, jobs: Iterable, n_jobs: int | None = None) -> int:
        """Warm the cache for a batch of independent matrix cells.

        ``jobs`` yields ``(workload, spec)`` or ``(workload, spec, tag)``
        tuples.  Cells already cached (memory or disk) are skipped; the
        remainder fan out across ``n_jobs`` workers of the shared
        persistent pool (default: the runner's ``jobs`` setting) and
        merge deterministically, so subsequent :meth:`run` calls are
        hits.  With one worker — or a single surviving cell — this
        stays in-process: :func:`repro.parallel.run_jobs` never pays
        pool overhead it cannot win back.

        Cells that exhaust their retries are **not** fatal here: each is
        journaled/counted as a failure and skipped, so one bad cell
        cannot abort the matrix.  Returns the number of fresh
        simulations that succeeded.
        """
        from repro.faults import CellFailure
        from repro.parallel import default_jobs, normalize_job, run_jobs

        n = self.jobs if n_jobs is None else n_jobs
        if n == 0:
            n = default_jobs()
        if n <= 1:
            return 0
        pending: dict[tuple[str, str, str], tuple] = {}
        for job in jobs:
            workload, spec, tag = normalize_job(job)
            key = (workload, spec_key(spec), tag)
            if key in self._cache or key in pending:
                continue
            if self._disk_get(key) is not None:
                continue
            pending[key] = (workload, spec, tag)
        if not pending:
            return 0
        results = run_jobs(list(pending.values()), self.config, n,
                           policy=self.retry, obs=self.obs)
        stored = 0
        for key, result in zip(pending, results):
            if isinstance(result, CellFailure):
                self.counters["failed_cells"] += 1
                if self.journal is not None:
                    self.journal.record_failure(result)
                continue
            self._store(key, result)
            stored += 1
        return stored

    def run_tracked(self, workload: str, prefetcher: PrefetcherSpec,
                    tracker, tag: str = "") -> SimulationResult:
        """The cell :meth:`run` returns, with its recorded credit log
        replayed into ``tracker`` (:func:`repro.analysis.credit.replay`).
        The cell is cached like any other; the lookup bypasses
        :meth:`run`, so a subclass hooking :meth:`run` sees only the
        cells a figure asks :meth:`run` for."""
        result = self._cell(workload, prefetcher, tag)
        replay(result.credit_log, tracker)
        return result

    def run_profiled(self, workload: str, prefetcher: PrefetcherSpec,
                     telemetry, tag: str = "") -> SimulationResult:
        """Simulate with a telemetry hub attached (never cached: the
        event stream and counter snapshot are per-run side outputs)."""
        key_spec, built = resolve_spec(prefetcher)
        if built is None:
            built = build_prefetcher(prefetcher)
        trace = get_workload(workload).trace()
        result = simulate(trace, built, self.config, telemetry=telemetry,
                          config_tag=tag, spec=key_spec)
        self._record(result)
        return result

    def baseline(self, workload: str) -> SimulationResult:
        return self.run(workload, "none")

    def cache_size(self) -> int:
        return len(self._cache)
