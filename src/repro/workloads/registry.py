"""Workload registry with read-through compiled-trace caching.

A :class:`Workload` pairs a name with a deferred program builder; its
functional trace (the "simpoint") is compiled to columnar form
(:class:`~repro.isa.trace.CompiledTrace`) exactly once, since every
prefetcher comparison replays the same trace.  Three cache layers stack:

1. the per-process memo on the :class:`Workload` instance,
2. the on-disk trace cache (:mod:`repro.workloads.tracecache`), keyed by
   builder-code version — one build per workload per machine, ever,
3. a fresh :class:`~repro.isa.machine.Machine` run when both miss.

Forked parallel workers inherit layer 1 copy-on-write and read layer 2
for anything loaded after the fork, so workers never rebuild traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.isa.machine import Machine
from repro.isa.program import Program
from repro.isa.trace import CompiledTrace, Trace, compile_trace
from repro.obs.metrics import PROCESS

DEFAULT_SIMPOINT = 160_000
"""Default dynamic-instruction budget per workload (the paper uses 10M
per simpoint; scaled down ~60x for Python, see DESIGN.md)."""


@dataclass
class Workload:
    """A named, lazily-built benchmark program."""

    name: str
    suite: str
    build: Callable[[], Program]
    simpoint: int = DEFAULT_SIMPOINT
    description: str = ""
    _trace: CompiledTrace | None = field(default=None, repr=False)

    def program(self) -> Program:
        return self.build()

    def object_trace(self) -> Trace:
        """The reference object trace, rebuilt from the program.

        This path never touches the trace cache: it is the ground truth
        the compiled/cached representation is verified against
        (``tests/test_tracecache.py``) and is not memoized.
        """
        PROCESS.count("trace_cache.builds")
        machine = Machine(max_instructions=self.simpoint, truncate=True)
        trace = machine.run(self.program())
        trace.name = self.name
        return trace

    def trace(self) -> CompiledTrace:
        """Compiled functional trace (memo -> disk cache -> build)."""
        from repro.workloads import tracecache

        if self._trace is not None:
            PROCESS.count("trace_cache.memory_hits")
            return self._trace
        cache = tracecache.TraceCache()
        cached = cache.get(self.name, self.simpoint)
        if cached is not None:
            PROCESS.count("trace_cache.disk_hits")
            self._trace = cached
            return cached
        compiled = compile_trace(self.object_trace())
        cache.put(compiled, self.simpoint)
        self._trace = compiled
        return compiled


_REGISTRY: dict[str, Workload] = {}
_SUITES_LOADED = False


def register(workload: Workload) -> Workload:
    if workload.name in _REGISTRY:
        raise ValueError(f"workload {workload.name!r} already registered")
    _REGISTRY[workload.name] = workload
    return workload


def get_or_register(workload: Workload) -> Workload:
    """Register ``workload`` unless its name is already taken.

    Returns the *registered* instance either way — the form dynamic
    suites (the fuzzer's per-seed workloads) need: building the same
    seed twice must yield one shared registry entry (and its trace
    memo), not a duplicate-name error.
    """
    existing = _REGISTRY.get(workload.name)
    if existing is not None:
        return existing
    return register(workload)


def has_trace_memo(name: str) -> bool:
    """Whether ``name`` is registered with a compiled-trace memo.

    The shared-memory installer (:func:`repro.parallel.shm.install`)
    probes this before attaching: a fork-inherited memo already carries
    the parent's trace *and* its memoized replay plans, so adopting a
    fresh view over it would only discard work.
    """
    workload = _REGISTRY.get(name)
    return workload is not None and workload._trace is not None


def _stub_builder(name: str) -> Callable[[], Program]:
    def build() -> Program:
        raise RuntimeError(
            f"workload {name!r} was adopted from a shared-memory "
            f"segment; its program builder is not available in this "
            f"process"
        )
    return build


def adopt_compiled_trace(name: str, trace: CompiledTrace) -> bool:
    """Install an externally-materialized compiled trace as ``name``'s memo.

    Pool workers call this (via :mod:`repro.parallel.shm`) to adopt
    zero-copy trace views.  A workload that already holds a memo keeps
    it (returns ``False``); a name the registry has never heard of —
    a dynamic fuzz workload inside a ``spawn`` worker that never ran
    the seed's builder — is registered as a stub whose builder refuses
    to run, which is fine: the memo is the only thing ``trace()`` will
    ever need here.
    """
    _load_suites()
    workload = _REGISTRY.get(name)
    if workload is None:
        workload = register(Workload(
            name=name, suite="shared", build=_stub_builder(name),
            description="trace adopted from a shared-memory segment",
        ))
    if workload._trace is not None:
        return False
    workload._trace = trace
    return True


def _load_suites() -> None:
    global _SUITES_LOADED
    if _SUITES_LOADED:
        return
    _SUITES_LOADED = True
    # Importing a suite module registers its workloads.
    from repro.workloads import (  # noqa: F401
        spec, crono, starbench, npb, stress,
    )


def get_workload(name: str) -> Workload:
    """Look up one workload by ``suite.name`` (e.g. ``"spec.mcf"``)."""
    _load_suites()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def get_suite(suite: str) -> list[Workload]:
    """All workloads of one suite ("spec", "crono", "starbench", "npb")."""
    _load_suites()
    selected = [w for w in _REGISTRY.values() if w.suite == suite]
    if not selected:
        raise ValueError(f"unknown suite {suite!r}")
    return selected


def all_suites() -> dict[str, list[Workload]]:
    _load_suites()
    suites: dict[str, list[Workload]] = {}
    for workload in _REGISTRY.values():
        suites.setdefault(workload.suite, []).append(workload)
    return suites


def workload_names(suite: str | None = None) -> list[str]:
    _load_suites()
    if suite is None:
        return sorted(_REGISTRY)
    return sorted(w.name for w in _REGISTRY.values() if w.suite == suite)
