"""Three-level cache hierarchy with prefetch support.

Wires L1D -> L2 -> L3 -> DRAM per Table I.  Responsibilities:

* demand access timing (latency accumulates level by level; fills carry a
  ``fill_time`` so later accesses can merge into in-flight misses),
* MSHR occupancy limits at L1 and L2 (full MSHRs stall demands and drop
  prefetches, which naturally throttles over-aggressive prefetchers),
* prefetch insertion at a chosen target level (L1 or L2), tagged with the
  issuing component for usefulness/pollution attribution,
* shadow-tag pollution detection at L1 and L2 (see
  :mod:`repro.memory.shadow`),
* dirty writeback chains down to DRAM (traffic accounting for Fig. 9),
* footprint recording: per-line demand-miss counts (the paper's ``FP`` with
  weights ``W_i``) and the set of attempted prefetch lines (``PFP``).

Instruction fetch is assumed to hit (perfect L1I): the workloads' code
footprints are tiny and the paper's prefetchers are data prefetchers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.isa.trace import LINE_SHIFT
from repro.memory.cache import Cache, CacheLine

if TYPE_CHECKING:  # avoid a circular import with repro.engine.config
    from repro.engine.config import SystemConfig
from repro.memory.dram import Dram
from repro.memory.shadow import ShadowTagStore
from repro.telemetry import events as ev

# LINE_SHIFT lives with the trace so the compile-time derived ``line``
# column and the hierarchy can never disagree; re-exported here for the
# existing importers.
LINE_BYTES = 1 << LINE_SHIFT


@dataclass(slots=True)
class AccessResult:
    """Outcome of one demand access."""

    ready_time: int
    hit_level: int          # 1, 2, 3, or 4 (DRAM)
    l1_hit: bool
    primary_miss: bool      # primary L1 miss (drives T2 activation)
    served_by_prefetch: bool
    prefetch_component: str | None = None


@dataclass(slots=True)
class PrefetchStats:
    """Hierarchy-wide prefetch accounting."""

    issued: int = 0
    issued_to_l1: int = 0
    issued_to_l2: int = 0
    filtered: int = 0        # target already had (or was fetching) the line
    dropped_mshr: int = 0
    dropped_dram: int = 0
    by_component: Counter = field(default_factory=Counter)


class _MshrFile:
    """Completion-time list bounded by the MSHR count.

    ``_min_pending`` caches the earliest completion so the per-access
    drain (dropping entries whose fill already finished) is a single
    comparison when nothing has expired — the common case — instead of a
    list rebuild.  Drain timing is unchanged: the list is pruned exactly
    when the eager implementation would have removed something."""

    __slots__ = ("capacity", "_pending", "_min_pending")

    _NO_PENDING = 1 << 62

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._pending: list[int] = []
        self._min_pending = self._NO_PENDING

    def _drain(self, now: int) -> None:
        if self._min_pending <= now:
            pending = [t for t in self._pending if t > now]
            self._pending = pending
            self._min_pending = min(pending, default=self._NO_PENDING)

    def acquire_demand(self, now: int) -> int:
        """Returns the cycle at which an MSHR is available (>= now)."""
        self._drain(now)
        if len(self._pending) < self.capacity:
            return now
        earliest = min(self._pending)
        self._drain(earliest)
        return earliest

    def try_acquire_prefetch(self, now: int) -> bool:
        self._drain(now)
        return len(self._pending) < self.capacity

    def register(self, completion: int) -> None:
        self._pending.append(completion)
        if completion < self._min_pending:
            self._min_pending = completion

    def occupancy(self, now: int) -> int:
        """Fills still in flight at ``now``.  Counts without pruning, so
        a read at a late cycle (the sampler reads at the latest commit)
        hides no entry from a demand that issues earlier."""
        return sum(1 for t in self._pending if t > now)


class Hierarchy:
    """L1D/L2/L3/DRAM for one core.

    ``l3`` and ``dram`` may be shared across cores (multicore mode); when
    omitted, private instances are created from ``config``.

    ``credit_log`` records the credit-accounting protocol (paper
    Sec. V-C1), one tuple per call in call order, named after the
    tracker method :func:`repro.analysis.credit.replay` calls with it:
    ``("on_prefetch_issued", line, component)``,
    ``("on_useful", line, component, level)``, and
    ``("on_pollution", level, victims)`` where ``victims`` is a tuple of
    ``(line_addr, component)`` for the prefetched lines in the affected
    set, sorted by line.  Every replay path records the same log: the
    segmented tier (:mod:`repro.engine.segmented`) appends to this list
    where this class would.
    """

    __slots__ = (
        "config",
        "l1d",
        "l2",
        "l3",
        "dram",
        "shadow_l1",
        "shadow_l2",
        "prefetch_stats",
        "credit_log",
        "telemetry",
        "miss_lines_l1",
        "miss_lines_l2",
        "attempted_prefetch_lines",
        "attempted_by_component",
        "pollution_misses_l1",
        "pollution_misses_l2",
        "_l1_mshrs",
        "_l2_mshrs",
    )

    def __init__(self, config: SystemConfig,
                 l3: Cache | None = None,
                 dram: Dram | None = None) -> None:
        self.config = config
        self.l1d = Cache("L1D", config.l1d.size_bytes, config.l1d.ways,
                         config.l1d.line_bytes, config.l1d.latency)
        self.l2 = Cache("L2", config.l2.size_bytes, config.l2.ways,
                        config.l2.line_bytes, config.l2.latency)
        self.l3 = l3 if l3 is not None else Cache(
            "L3", config.l3.size_bytes, config.l3.ways,
            config.l3.line_bytes, config.l3.latency,
        )
        self.dram = dram if dram is not None else Dram(config.dram)
        self.shadow_l1 = ShadowTagStore(self.l1d.num_sets, self.l1d.ways)
        self.shadow_l2 = ShadowTagStore(self.l2.num_sets, self.l2.ways)
        self.prefetch_stats = PrefetchStats()
        self.credit_log: list[tuple] = []
        self.telemetry = None
        """Optional :class:`repro.telemetry.Telemetry` hub.  Every emit
        site below is guarded by ``is not None`` so a run without
        telemetry executes the exact pre-telemetry code path."""
        self.miss_lines_l1: Counter = Counter()
        self.miss_lines_l2: Counter = Counter()
        self.attempted_prefetch_lines: set[int] = set()
        self.attempted_by_component: dict[str, set[int]] = {}
        self.pollution_misses_l1 = 0
        self.pollution_misses_l2 = 0
        self._l1_mshrs = _MshrFile(config.l1d.mshrs)
        self._l2_mshrs = _MshrFile(config.l2.mshrs)

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def demand_access(self, addr: int, now: int,
                      is_write: bool = False, pc: int = -1) -> AccessResult:
        """One demand load/store; returns when the data is ready.

        ``pc`` (when the caller knows it) only tags telemetry events; it
        never affects timing.
        """
        line = addr >> LINE_SHIFT
        l1 = self.l1d
        stats = l1.stats
        stats.demand_accesses += 1
        hit = l1.lookup(line, now, is_write=is_write)
        shadow_l1_hit = self.shadow_l1.access(line)
        telemetry = self.telemetry

        if hit is not None:
            stats.demand_hits += 1
            served = hit.first_use_of_prefetch
            ready = hit.ready_time
            if served:
                stats.useful_prefetches += 1
                if ready > now:
                    stats.late_prefetch_hits += 1
                self.credit_log.append(("on_useful", line, hit.component, 1))
                if telemetry is not None:
                    telemetry.emit(ev.FIRST_USE, now, line=line,
                                   component=hit.component, level=1, pc=pc)
            elif ready > now and not hit.was_prefetched:
                stats.mshr_merges += 1
            if ready < now:
                ready = now
            return AccessResult(
                ready_time=ready + l1.hit_latency,
                hit_level=1,
                l1_hit=True,
                primary_miss=False,
                served_by_prefetch=served,
                prefetch_component=hit.component,
            )

        stats.demand_misses += 1
        self.miss_lines_l1[line] += 1
        if shadow_l1_hit:
            self.pollution_misses_l1 += 1
            self.credit_log.append(
                ("on_pollution", 1, self._prefetch_victims(l1, line)))
            if telemetry is not None:
                telemetry.emit(ev.POLLUTION_HIT, now, line=line, level=1,
                               pc=pc)
        t = self._l1_mshrs.acquire_demand(now) + l1.hit_latency
        fill_time, hit_level, served, component = self._access_l2(
            line, t, shadow_l1_hit, is_write, pc
        )
        self._fill_l1(line, fill_time, is_write)
        self._l1_mshrs.register(fill_time)
        return AccessResult(
            ready_time=fill_time,
            hit_level=hit_level,
            l1_hit=False,
            primary_miss=True,
            served_by_prefetch=served,
            prefetch_component=component,
        )

    def _access_l2(self, line: int, now: int, shadow_l1_hit: bool,
                   is_write: bool, pc: int = -1
                   ) -> tuple[int, int, bool, str | None]:
        """L2 leg of a demand miss: returns (data ready, level, served-by-
        prefetch, component)."""
        l2 = self.l2
        stats = l2.stats
        stats.demand_accesses += 1
        hit = l2.lookup(line, now)
        shadow_l2_hit = True
        if not shadow_l1_hit:
            shadow_l2_hit = self.shadow_l2.access(line)
        telemetry = self.telemetry

        if hit is not None:
            stats.demand_hits += 1
            served = hit.first_use_of_prefetch
            ready = hit.ready_time
            if served:
                stats.useful_prefetches += 1
                if ready > now:
                    stats.late_prefetch_hits += 1
                self.credit_log.append(("on_useful", line, hit.component, 2))
                if telemetry is not None:
                    telemetry.emit(ev.FIRST_USE, now, line=line,
                                   component=hit.component, level=2, pc=pc)
            if ready < now:
                ready = now
            return ready + l2.hit_latency, 2, served, hit.component

        stats.demand_misses += 1
        self.miss_lines_l2[line] += 1
        if not shadow_l1_hit and shadow_l2_hit:
            self.pollution_misses_l2 += 1
            self.credit_log.append(
                ("on_pollution", 2, self._prefetch_victims(l2, line)))
            if telemetry is not None:
                telemetry.emit(ev.POLLUTION_HIT, now, line=line, level=2,
                               pc=pc)
        t = self._l2_mshrs.acquire_demand(now) + l2.hit_latency
        fill_time, hit_level = self._access_l3(line, t, is_prefetch=False,
                                               component=None, pc=pc)
        self._fill_l2(line, fill_time)
        self._l2_mshrs.register(fill_time)
        return fill_time, hit_level, False, None

    def _access_l3(self, line: int, now: int, is_prefetch: bool,
                   component: str | None, pc: int = -1) -> tuple[int, int]:
        """L3 leg: returns (data ready time, hit level).  For dropped
        prefetch reads, returns (-1, 4)."""
        l3 = self.l3
        if not is_prefetch:
            l3.stats.demand_accesses += 1
        hit = l3.lookup(line, now)
        if hit is not None:
            if not is_prefetch:
                l3.stats.demand_hits += 1
                if hit.first_use_of_prefetch:
                    l3.stats.useful_prefetches += 1
                    if self.telemetry is not None:
                        self.telemetry.emit(ev.FIRST_USE, now, line=line,
                                            component=hit.component,
                                            level=3, pc=pc)
            return max(now, hit.ready_time) + l3.hit_latency, 3
        if not is_prefetch:
            l3.stats.demand_misses += 1
        t = now + l3.hit_latency
        completion = self.dram.read(line, t, is_prefetch=is_prefetch,
                                    component=component)
        if completion is None:
            return -1, 4
        self._fill_l3(line, completion, prefetched=is_prefetch,
                      component=component)
        return completion, 4

    # ------------------------------------------------------------------
    # Fills and writebacks
    # ------------------------------------------------------------------
    def _fill_l1(self, line: int, fill_time: int, dirty: bool = False,
                 prefetched: bool = False,
                 component: str | None = None) -> None:
        evicted = self.l1d.fill(line, fill_time, prefetched=prefetched,
                                component=component, dirty=dirty)
        if evicted is not None:
            if self.telemetry is not None and evicted.prefetched \
                    and not evicted.used:
                self.telemetry.emit(ev.EVICTED_UNUSED, fill_time,
                                    line=evicted.line_addr,
                                    component=evicted.component, level=1)
            if evicted.dirty:
                self._writeback_to_l2(evicted, fill_time)

    def _fill_l2(self, line: int, fill_time: int, prefetched: bool = False,
                 component: str | None = None, dirty: bool = False) -> None:
        evicted = self.l2.fill(line, fill_time, prefetched=prefetched,
                               component=component, dirty=dirty)
        if evicted is not None:
            if self.telemetry is not None and evicted.prefetched \
                    and not evicted.used:
                self.telemetry.emit(ev.EVICTED_UNUSED, fill_time,
                                    line=evicted.line_addr,
                                    component=evicted.component, level=2)
            if evicted.dirty:
                self._writeback_to_l3(evicted, fill_time)

    def _fill_l3(self, line: int, fill_time: int, prefetched: bool = False,
                 component: str | None = None, dirty: bool = False) -> None:
        evicted = self.l3.fill(line, fill_time, prefetched=prefetched,
                               component=component, dirty=dirty)
        if evicted is not None:
            if self.telemetry is not None and evicted.prefetched \
                    and not evicted.used:
                self.telemetry.emit(ev.EVICTED_UNUSED, fill_time,
                                    line=evicted.line_addr,
                                    component=evicted.component, level=3)
            if evicted.dirty:
                self.dram.write(evicted.line_addr, fill_time)

    def _writeback_to_l2(self, evicted: CacheLine, now: int) -> None:
        self._fill_l2(evicted.line_addr, now, dirty=True)

    def _writeback_to_l3(self, evicted: CacheLine, now: int) -> None:
        self._fill_l3(evicted.line_addr, now, dirty=True)

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------
    def prefetch(self, line: int, now: int, target_level: int = 1,
                 component: str | None = None, pc: int = -1) -> bool:
        """Prefetch one line into ``target_level`` (1 or 2).

        Returns True if a prefetch was actually issued (not filtered or
        dropped).  Every call records the line in the attempted-prefetch
        footprint (the paper's ``PFP``) regardless of outcome.  ``pc`` is
        the triggering instruction, for telemetry tagging only.
        """
        if target_level not in (1, 2):
            raise ValueError(f"prefetch target must be 1 or 2, got {target_level}")
        self.attempted_prefetch_lines.add(line)
        if component is not None:
            per_component = self.attempted_by_component.get(component)
            if per_component is None:
                per_component = self.attempted_by_component[component] = set()
            per_component.add(line)
        stats = self.prefetch_stats
        telemetry = self.telemetry
        target = self.l1d if target_level == 1 else self.l2
        if target.probe(line):
            stats.filtered += 1
            if telemetry is not None:
                telemetry.emit(ev.FILTERED, now, line=line,
                               component=component, level=target_level,
                               pc=pc)
            return False
        mshrs = self._l1_mshrs if target_level == 1 else self._l2_mshrs
        if not mshrs.try_acquire_prefetch(now):
            stats.dropped_mshr += 1
            if telemetry is not None:
                telemetry.emit(ev.DROPPED_MSHR, now, line=line,
                               component=component, level=target_level,
                               pc=pc)
            return False

        # Locate the data below the target level.
        if target_level == 1 and self.l2.probe(line):
            hit = self.l2.lookup(line, now, touch=True)
            fill_time = max(now, hit.ready_time) + self.l2.hit_latency
        else:
            fill_time, _ = self._access_l3(
                line, now, is_prefetch=True, component=component
            )
            if fill_time < 0:
                stats.dropped_dram += 1
                if telemetry is not None:
                    telemetry.emit(ev.DROPPED_DRAM, now, line=line,
                                   component=component, level=target_level,
                                   pc=pc)
                return False
            self._fill_l2(line, fill_time, prefetched=True,
                          component=component)

        if target_level == 1:
            self._fill_l1(line, fill_time, prefetched=True,
                          component=component)
            stats.issued_to_l1 += 1
        else:
            stats.issued_to_l2 += 1
        stats.issued += 1
        stats.by_component[component or "?"] += 1
        mshrs.register(fill_time)
        self.credit_log.append(("on_prefetch_issued", line, component))
        if telemetry is not None:
            telemetry.emit(ev.ISSUED, now, line=line, component=component,
                           level=target_level, pc=pc,
                           dur=max(fill_time - now, 0))
            telemetry.emit(ev.FILLED, fill_time, line=line,
                           component=component, level=target_level, pc=pc)
        return True

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _prefetch_victims(self, cache: Cache, line: int
                          ) -> tuple[tuple[int, str | None], ...]:
        set_index = cache.set_index(line)
        return tuple(sorted(
            (l.line_addr, l.component)
            for l in cache.prefetched_lines_in_set(set_index)
        ))

    def mshr_occupancy(self, level: int, now: int) -> int:
        """In-flight misses at L1 (``level=1``) or L2 (``level=2``) at
        cycle ``now`` (telemetry sampling / tests)."""
        mshrs = self._l1_mshrs if level == 1 else self._l2_mshrs
        return mshrs.occupancy(now)

    @property
    def dram_traffic(self) -> int:
        """Total lines moved over the memory channels (Fig. 9 metric)."""
        return self.dram.stats.total_traffic
