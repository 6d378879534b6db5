"""Single-core system harness: trace + prefetcher + hierarchy -> results."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.base import NullPrefetcher, Prefetcher
from repro.engine.config import SystemConfig, EXPERIMENT_CONFIG
from repro.engine.ooo import CoreStats, OoOCore
from repro.isa.trace import Trace
from repro.memory.cache import CacheStats
from repro.memory.dram import DramStats
from repro.memory.hierarchy import Hierarchy, PrefetchStats
from repro.telemetry.manifest import RunManifest, build_manifest


@dataclass
class SimulationResult:
    """Everything the experiments need from one (trace, prefetcher) run."""

    workload: str
    prefetcher: str
    core: CoreStats
    l1d: CacheStats
    l2: CacheStats
    l3: CacheStats
    dram: DramStats
    prefetch: PrefetchStats
    miss_lines_l1: Counter = field(default_factory=Counter)
    miss_lines_l2: Counter = field(default_factory=Counter)
    attempted_prefetch_lines: set = field(default_factory=set)
    attempted_by_component: dict = field(default_factory=dict)
    pollution_misses_l1: int = 0
    pollution_misses_l2: int = 0
    credit_log: list = field(default_factory=list)
    """The run's credit-accounting protocol calls, in call order (see
    ``Hierarchy.credit_log``); :func:`repro.analysis.credit.replay`
    feeds them to a tracker."""
    kernel: str = "generic"
    """Replay path that produced this result: a ``segmented+…``
    variant or ``generic`` (see :mod:`repro.engine.kernel`); lets
    benchmarks and the fault journal attribute timings to a kernel."""
    manifest: RunManifest | None = None
    """Provenance stamp (config tag, prefetcher spec, git SHA, counter
    snapshot); see :mod:`repro.telemetry.manifest`."""

    @property
    def cycles(self) -> int:
        return self.core.cycles

    @property
    def ipc(self) -> float:
        return self.core.ipc

    @property
    def dram_traffic(self) -> int:
        return self.dram.total_traffic

    @property
    def l1_mpki(self) -> float:
        if not self.core.instructions:
            return 0.0
        return 1000.0 * self.l1d.demand_misses / self.core.instructions

    @property
    def l2_mpki(self) -> float:
        if not self.core.instructions:
            return 0.0
        return 1000.0 * self.l2.demand_misses / self.core.instructions

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Speedup of this run relative to ``baseline`` (same trace)."""
        if self.cycles == 0:
            return 0.0
        return baseline.cycles / self.cycles


def simulate(trace: Trace, prefetcher: Prefetcher | None = None,
             config: SystemConfig | None = None,
             tracker=None, telemetry=None, config_tag: str = "",
             spec: str | None = None) -> SimulationResult:
    """Simulate one trace on a single-core system.

    Parameters
    ----------
    prefetcher:
        Any :class:`~repro.core.base.Prefetcher`; defaults to no prefetching.
    config:
        System configuration; defaults to the experiment configuration
        (Table I with caches scaled to the shortened traces).
    tracker:
        Optional credit tracker (see :mod:`repro.analysis.credit`), fed
        the run's ``credit_log`` once the run ends.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` hub.  When given it is
        wired to the hierarchy, the DRAM controller, the core, and (for
        composites) the coordinator; when ``None`` the simulation runs the
        exact seed code path.
    config_tag / spec:
        Provenance strings recorded in the result's manifest (the
        experiment runner passes its cache tag and stable spec key).
    """
    prefetcher = prefetcher if prefetcher is not None else NullPrefetcher()
    config = config or EXPERIMENT_CONFIG
    prefetcher.reset()
    if prefetcher.wants_memory_image:
        prefetcher.set_memory(trace.memory)
    hierarchy = Hierarchy(config)
    core = OoOCore(trace, hierarchy, prefetcher, config.core)
    if telemetry is not None:
        hierarchy.telemetry = telemetry
        hierarchy.dram.telemetry = telemetry
        coordinator = getattr(prefetcher, "coordinator", None)
        if coordinator is not None:
            coordinator.telemetry = telemetry
        core.attach_telemetry(telemetry)
    core_stats = core.run()
    result = SimulationResult(
        workload=trace.name,
        prefetcher=prefetcher.name,
        core=core_stats,
        l1d=hierarchy.l1d.stats,
        l2=hierarchy.l2.stats,
        l3=hierarchy.l3.stats,
        dram=hierarchy.dram.stats,
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
    if tracker is not None:
        from repro.analysis.credit import replay

        replay(result.credit_log, tracker)
    result.manifest = build_manifest(result, spec=spec,
                                     config_tag=config_tag,
                                     telemetry=telemetry)
    return result
