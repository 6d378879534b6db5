"""Multicore system: private L1/L2 per core, shared L3 and DRAM.

The paper's multicore experiments run 4-thread mixes and report *weighted
speedup*: ``sum_i IPC_shared_i / IPC_alone_i``.  Cores are advanced in
approximate cycle order (always running a burst of :data:`BURST`
instructions on the core whose clock is furthest behind), which
interleaves their demand and prefetch streams at the shared L3 and
memory controller — the contention that the drop-policy experiment
(Sec. V-C1) depends on.

Each core replaying a compiled trace runs its bursts on its burst
kernel (:mod:`repro.engine.kernel`), a generator that keeps its locals
between bursts.  Cores no kernel takes — object traces, a sampler, a
telemetry hub, a dynamic branch predictor, and ``REPRO_KERNEL=generic``
— run them as ``OoOCore.step()`` calls.  Both retire the same
instructions per burst, so the interleaving, and every number, is the
same on either path.  Each per-core result carries its own hierarchy's
``credit_log``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from repro.core.base import NullPrefetcher, Prefetcher
from repro.engine.config import SystemConfig, EXPERIMENT_CONFIG
from repro.engine.kernel import (core_feeds, feed_shape, get_kernel,
                                 kernel_flags, variant_name)
from repro.engine.ooo import OoOCore
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


def _bursts(core: OoOCore):
    """``core``'s burst generator, on the kernel :func:`kernel_flags`
    picks (the step loop when it picks none)."""
    flags = kernel_flags(core)
    if flags is None:
        return _step_bursts(core, BURST)
    core.kernel_variant = variant_name(flags)
    feeds = core_feeds(core)
    return get_kernel(flags, feed_shape(feeds))(core, BURST, feeds)


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
    bursts = [_bursts(core) for core in cores]
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
