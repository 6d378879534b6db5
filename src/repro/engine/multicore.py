"""Multicore system: private L1/L2 per core, shared L3 and DRAM.

The paper's multicore experiments run 4-thread mixes and report *weighted
speedup*: ``sum_i IPC_shared_i / IPC_alone_i``.  Cores are advanced in
approximate cycle order (always running a burst of :data:`BURST`
instructions on the core whose clock is furthest behind), which
interleaves their demand and prefetch streams at the shared L3 and
memory controller — the contention that the drop-policy experiment
(Sec. V-C1) depends on.

A mix replays on one of two paths, decided for all its cores at once
because they share one L3/DRAM representation.  When the segmented
tier takes every core (:func:`~repro.engine.kernel.kernel_flags` and a
stock cold hierarchy), each core runs its bursts on a segmented
generator (:func:`~repro.engine.segmented.segmented_bursts`) that keeps
its locals between bursts, and all of them replay against one shared
virtual L3/DRAM (:class:`~repro.engine.segmented.SharedLevels`).  When
the tier declines any core — an object trace, a sampler, a telemetry
hub, a dynamic branch predictor, a subclassed or warm memory model, or
``REPRO_KERNEL=generic`` — every core runs its bursts as
``OoOCore.step()`` calls against the real shared ``Cache`` and
``Dram``.  Both retire the same instructions per burst, so the
interleaving, and every number, is the same on either path.  Each
per-core result carries its own hierarchy's ``credit_log``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from repro.core.base import NullPrefetcher, Prefetcher
from repro.engine.config import SystemConfig, EXPERIMENT_CONFIG
from repro.engine.kernel import kernel_flags
from repro.engine.ooo import OoOCore
from repro.engine.segmented import (SharedLevels, _stock_cold_hierarchy,
                                    segmented_bursts)
from repro.engine.system import SimulationResult
from repro.isa.trace import Trace
from repro.memory.cache import Cache
from repro.memory.dram import Dram
from repro.memory.hierarchy import Hierarchy


BURST = 32
"""Instructions a core retires per turn before the scheduler picks the
core furthest behind again.  It decides the order in which the cores'
accesses meet at the shared L3 and DRAM, so it is part of the model,
not a tuning knob; both replay paths use it."""


def _step_bursts(core: OoOCore, burst: int):
    """The generic loop's bursts: ``burst`` ``step()`` calls per turn."""
    step = core.step
    while True:
        for _ in range(burst):
            if not step():
                return
        yield True


def _bursts(cores: list[OoOCore], l3: Cache, dram: Dram) -> list:
    """Every core's burst generator: all on the segmented tier over one
    virtual copy of the shared ``l3`` and ``dram``, or all on the step
    loop when the tier declines any core.  Decided before any core
    runs, while every hierarchy is still cold."""
    flags = [kernel_flags(core) for core in cores]
    if None in flags or not all(map(_stock_cold_hierarchy, cores)):
        return [_step_bursts(core, BURST) for core in cores]
    shared = SharedLevels(l3, dram)
    return [segmented_bursts(core, core_flags, shared, BURST)
            for core, core_flags in zip(cores, flags)]


@dataclass
class MulticoreResult:
    """Per-core results plus the shared-resource statistics."""

    per_core: list[SimulationResult]
    dram_traffic: int = 0

    def weighted_speedup(self, alone: list[SimulationResult]) -> float:
        """``sum_i IPC_shared_i / IPC_alone_i`` (paper's metric)."""
        if len(alone) != len(self.per_core):
            raise ValueError("need one standalone result per core")
        total = 0.0
        for shared, solo in zip(self.per_core, alone):
            if solo.ipc > 0:
                total += shared.ipc / solo.ipc
        return total

    @property
    def total_instructions(self) -> int:
        return sum(r.core.instructions for r in self.per_core)


def simulate_multicore(traces: list[Trace],
                       prefetchers: list[Prefetcher] | None = None,
                       config: SystemConfig | None = None,
                       trackers: list | None = None) -> MulticoreResult:
    """Simulate ``len(traces)`` cores sharing an L3 and memory controller.

    Each core gets its own prefetcher instance (they must not share
    learned state, exactly as per-core hardware would not).  Each of
    ``trackers``, when given, is fed its core's ``credit_log`` after the
    run (:func:`repro.analysis.credit.replay`).
    """
    config = config or EXPERIMENT_CONFIG
    n = len(traces)
    if prefetchers is None:
        prefetchers = [NullPrefetcher() for _ in range(n)]
    if len(prefetchers) != n:
        raise ValueError("need one prefetcher per trace")
    if trackers is not None and len(trackers) != n:
        raise ValueError("need one tracker per trace")

    shared_l3 = Cache(
        "L3",
        config.l3.size_bytes * n,  # Table I: 2 MB *per core*
        config.l3.ways,
        config.l3.line_bytes,
        config.l3.latency,
    )
    shared_dram = Dram(config.dram)

    cores: list[OoOCore] = []
    hierarchies: list[Hierarchy] = []
    for trace, prefetcher in zip(traces, prefetchers):
        prefetcher.reset()
        if prefetcher.wants_memory_image:
            prefetcher.set_memory(trace.memory)
        hierarchy = Hierarchy(config, l3=shared_l3, dram=shared_dram)
        hierarchies.append(hierarchy)
        cores.append(OoOCore(trace, hierarchy, prefetcher, config.core))

    # Min-heap on (core clock, core id): always advance the core that is
    # furthest behind so shared-resource accesses interleave realistically.
    # ``next(bursts[i], False)`` runs one burst of core ``i`` and is
    # False once its trace is done.
    bursts = _bursts(cores, shared_l3, shared_dram)
    heap = [(core.now, i) for i, core in enumerate(cores)]
    heapify(heap)
    while heap:
        _, i = heappop(heap)
        if next(bursts[i], False):
            heappush(heap, (cores[i].now, i))

    per_core = []
    for trace, prefetcher, hierarchy, core in zip(
        traces, prefetchers, hierarchies, cores
    ):
        per_core.append(
            SimulationResult(
                workload=trace.name,
                prefetcher=prefetcher.name,
                core=core.stats,
                l1d=hierarchy.l1d.stats,
                l2=hierarchy.l2.stats,
                l3=hierarchy.l3.stats,
                dram=shared_dram.stats,
                prefetch=hierarchy.prefetch_stats,
                miss_lines_l1=hierarchy.miss_lines_l1,
                miss_lines_l2=hierarchy.miss_lines_l2,
                attempted_prefetch_lines=hierarchy.attempted_prefetch_lines,
                attempted_by_component=hierarchy.attempted_by_component,
                pollution_misses_l1=hierarchy.pollution_misses_l1,
                pollution_misses_l2=hierarchy.pollution_misses_l2,
                credit_log=hierarchy.credit_log,
                kernel=core.kernel_variant,
            )
        )
    if trackers is not None:
        from repro.analysis.credit import replay

        for tracker, result in zip(trackers, per_core):
            replay(result.credit_log, tracker)
    return MulticoreResult(
        per_core=per_core, dram_traffic=shared_dram.stats.total_traffic
    )
