"""Simplified out-of-order core timing model.

A one-pass scoreboard over the retired-instruction trace, in the spirit of
trace-driven simulators (the substitution for gem5's execution-driven core;
see DESIGN.md).  Modeled:

* 4-wide fetch/dispatch and commit (Table I),
* a 192-entry ROB: instruction *n* cannot dispatch before instruction
  *n - 192* commits,
* register dependencies through a per-register ready-time scoreboard,
* load latency from the cache hierarchy, including in-flight fill merging
  and MSHR back-pressure,
* static branch prediction (backward taken / forward not-taken; indirect
  transfers predicted via BTB/RAS) with a 15-cycle mispredict bubble,
* the prefetcher hooks: full instruction stream (when requested) and
  per-access events carrying the ``mPC``, the load value, and the observed
  latency.

Not modeled: wrong-path execution (the penalty is charged as a fetch
bubble) and LSQ-capacity stalls (the ROB bound dominates for these
workloads).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.base import AccessEvent, Prefetcher
from repro.engine.config import CoreConfig
from repro.isa.instructions import NUM_REGISTERS, OpClass
from repro.isa.trace import Trace
from repro.memory.hierarchy import LINE_SHIFT, Hierarchy


@dataclass(slots=True)
class CoreStats:
    instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    mispredicts: int = 0
    load_latency_total: int = 0
    miss_pcs: Counter = field(default_factory=Counter)
    miss_latency_by_pc: Counter = field(default_factory=Counter)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def average_load_latency(self) -> float:
        return self.load_latency_total / self.loads if self.loads else 0.0


_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_ALU = int(OpClass.ALU)
_BRANCH = int(OpClass.BRANCH)


class OoOCore:
    """Incremental core model; ``step()`` retires one instruction.

    ``step()`` is the generic loop: the reference the segmented tier
    (:mod:`repro.engine.segmented`) is checked against, and the replay
    path for every cell the tier declines (see :meth:`run`), in whole
    runs and in the multicore harness's bursts alike.
    """

    __slots__ = (
        "trace",
        "hierarchy",
        "prefetcher",
        "config",
        "stats",
        "_records",
        "_num_records",
        "_index",
        "_reg_ready",
        "_fetch_cycle",
        "_fetch_slot",
        "_commit_ring",
        "_rob_size",
        "_last_commit_time",
        "_commits_at_time",
        "_observe_instruction",
        "_observe_access",
        "_on_access",
        "_on_fill",
        "_sampler",
        "_branch_predictor",
        "_width",
        "_alu_latency",
        "_branch_penalty",
        "kernel_variant",
        "_event",
    )

    def __init__(self, trace: Trace, hierarchy: Hierarchy,
                 prefetcher: Prefetcher,
                 config: CoreConfig | None = None) -> None:
        self.trace = trace
        self.hierarchy = hierarchy
        self.prefetcher = prefetcher
        self.config = config or CoreConfig()
        self.stats = CoreStats()
        self._records = None
        self._num_records = len(trace)
        self._index = 0
        self._reg_ready = [0] * NUM_REGISTERS
        self._fetch_cycle = 0
        self._fetch_slot = 0
        rob = self.config.rob_entries
        self._commit_ring = [0] * rob
        self._rob_size = rob
        self._last_commit_time = 0
        self._commits_at_time = 0
        # Bind the per-access hooks once, and only when the prefetcher
        # actually overrides them: for the no-prefetch baseline all three
        # stay None and the access path skips building AccessEvents.
        # Comparing the bound method's ``__func__`` (not the class
        # attribute) also honors instance-level shadowing, which the
        # composite uses to splice component hooks in directly.
        def _bound(attr: str):
            method = getattr(prefetcher, attr)
            if getattr(method, "__func__", None) is getattr(Prefetcher,
                                                            attr):
                return None
            return method

        self._observe_instruction = (
            _bound("observe_instruction")
            if prefetcher.needs_instruction_stream
            else None
        )
        self._observe_access = _bound("observe_access")
        self._on_access = _bound("on_access")
        self._on_fill = _bound("on_fill")
        # One event per replay, refilled at every access: a hook may
        # read it only during its call (AccessEvent).
        self._event = AccessEvent(0, 0, 0, 0, 0, False, False, False,
                                  0, 0, -1)
        self._sampler = None
        self.kernel_variant = "generic"
        # Hot-loop bindings: read once here instead of chasing
        # ``self.config.<attr>`` on every retired instruction.
        self._width = self.config.width
        self._alu_latency = self.config.int_alu_latency
        self._branch_penalty = self.config.branch_miss_penalty
        from repro.engine.branch import make_predictor

        self._branch_predictor = make_predictor(
            self.config.branch_predictor
        )

    def attach_telemetry(self, telemetry) -> None:
        """Wire a :class:`repro.telemetry.Telemetry` hub to this core.

        Binds the hub's sampler (if any) to this core + hierarchy so the
        retire loop can drive it.  The sampler only reads state, and its
        occupancy reads prune nothing, so attaching never changes
        timing.  A core with a sampler runs the generic loop, which
        calls it once per retired instruction.
        """
        sampler = telemetry.sampler
        if sampler is not None:
            sampler.bind(self, self.hierarchy, telemetry)
        self._sampler = sampler

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._index >= self._num_records

    @property
    def now(self) -> int:
        """The core's current (fetch) cycle, for multicore scheduling."""
        return self._fetch_cycle

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Retire the next instruction; returns False when trace is done.

        The generic loop, one :class:`TraceRecord` per instruction for
        object and compiled traces alike.  A compiled trace's record
        views are materialized on the first step, not when the core is
        built: the specialized kernels read its columns instead.
        """
        index = self._index
        if index >= self._num_records:
            return False
        records = self._records
        if records is None:
            records = self._records = self.trace.records
        record = records[index]
        self._index = index + 1
        width = self._width

        # Fetch bandwidth: `width` instructions per cycle.
        fetch_cycle = self._fetch_cycle
        fetch_slot = self._fetch_slot
        if fetch_slot >= width:
            fetch_cycle += 1
            fetch_slot = 0
        self._fetch_slot = fetch_slot + 1
        fetch_time = fetch_cycle

        # ROB occupancy: slot of instruction (index - rob) must be free.
        rob_slot = index % self._rob_size
        rob_free = self._commit_ring[rob_slot]
        if rob_free > fetch_time:
            # ROB-full stall also stalls fetch.
            dispatch = rob_free
            fetch_cycle = rob_free
            self._fetch_slot = 1
        else:
            dispatch = fetch_time
        self._fetch_cycle = fetch_cycle

        observe_instruction = self._observe_instruction
        if observe_instruction is not None:
            observe_instruction(record, dispatch)

        reg_ready = self._reg_ready
        opc = record.opc
        if opc == _LOAD:
            issue = dispatch
            src = record.src1
            if src >= 0 and reg_ready[src] > issue:
                issue = reg_ready[src]
            complete = self._do_load(record.pc, record.addr, record.value,
                                     record.dst, record.ras_top, issue)
            reg_ready[record.dst] = complete
        elif opc == _STORE:
            issue = dispatch
            src = record.src1
            if src >= 0 and reg_ready[src] > issue:
                issue = reg_ready[src]
            data = record.src2
            if data >= 0 and reg_ready[data] > issue:
                issue = reg_ready[data]
            self._do_store(record.pc, record.addr, record.ras_top, issue)
            complete = issue + 1
        elif opc == _ALU:
            issue = dispatch
            src = record.src1
            if src >= 0 and reg_ready[src] > issue:
                issue = reg_ready[src]
            src = record.src2
            if src >= 0 and reg_ready[src] > issue:
                issue = reg_ready[src]
            complete = issue + self._alu_latency
            if record.dst >= 0:
                reg_ready[record.dst] = complete
        elif opc == _BRANCH:
            issue = dispatch
            src = record.src1
            if src >= 0 and reg_ready[src] > issue:
                issue = reg_ready[src]
            src = record.src2
            if src >= 0 and reg_ready[src] > issue:
                issue = reg_ready[src]
            complete = issue + 1
            self.stats.branches += 1
            if record.src1 >= 0:  # conditional branch: predict and verify
                predictor = self._branch_predictor
                predicted_taken = predictor.predict(record.pc,
                                                    record.target_pc)
                predictor.update(record.pc, record.target_pc, record.taken)
                if predicted_taken != record.taken:
                    self.stats.mispredicts += 1
                    self._fetch_cycle = complete + self._branch_penalty
                    self._fetch_slot = 0
        else:  # CALL / RET / OTHER: predicted by BTB/RAS, 1-cycle op
            complete = dispatch + 1

        # In-order commit, `width` per cycle.
        last_commit = self._last_commit_time
        if complete > last_commit:
            commit = complete
            self._commits_at_time = 1
        else:
            commit = last_commit
            commits_at_time = self._commits_at_time + 1
            if commits_at_time > width:
                commit += 1
                commits_at_time = 1
            self._commits_at_time = commits_at_time
        self._last_commit_time = commit
        self._commit_ring[rob_slot] = commit

        stats = self.stats
        stats.instructions += 1
        stats.cycles = commit
        sampler = self._sampler
        if sampler is not None:
            sampler.on_instruction()
        return True

    # ------------------------------------------------------------------
    def _do_load(self, pc: int, addr: int, value: int, dst: int,
                 ras_top: int, issue: int) -> int:
        result = self.hierarchy.demand_access(addr, issue,
                                              is_write=False, pc=pc)
        latency = result.ready_time - issue
        stats = self.stats
        stats.loads += 1
        stats.load_latency_total += latency
        if result.primary_miss:
            stats.miss_pcs[pc] += 1
            stats.miss_latency_by_pc[pc] += latency
        line = addr >> LINE_SHIFT
        observe_access = self._observe_access
        on_access = self._on_access
        if observe_access is not None or on_access is not None:
            event = self._event
            event.cycle = issue
            event.pc = pc
            event.mpc = pc ^ ras_top
            event.addr = addr
            event.line = line
            event.is_load = True
            event.hit = result.l1_hit
            event.primary_miss = result.primary_miss
            event.latency = latency
            event.value = value
            event.dst = dst
            event.served_by_prefetch = result.served_by_prefetch
            event.serving_component = result.prefetch_component
            if result.served_by_prefetch:
                self.prefetcher.on_prefetch_hit(line, result.hit_level)
            if observe_access is not None:
                observe_access(event)
            requests = on_access(event) if on_access is not None else None
            if requests:
                self._issue_requests(requests, issue, pc)
        elif result.served_by_prefetch:
            self.prefetcher.on_prefetch_hit(line, result.hit_level)
        if result.primary_miss and self._on_fill is not None:
            self._on_fill(line, 1)
        return result.ready_time

    def _do_store(self, pc: int, addr: int, ras_top: int,
                  issue: int) -> None:
        result = self.hierarchy.demand_access(addr, issue,
                                              is_write=True, pc=pc)
        self.stats.stores += 1
        line = addr >> LINE_SHIFT
        observe_access = self._observe_access
        on_access = self._on_access
        if observe_access is not None or on_access is not None:
            event = self._event
            event.cycle = issue
            event.pc = pc
            event.mpc = pc ^ ras_top
            event.addr = addr
            event.line = line
            event.is_load = False
            event.hit = result.l1_hit
            event.primary_miss = result.primary_miss
            event.latency = 0
            event.value = 0
            event.dst = -1
            event.served_by_prefetch = result.served_by_prefetch
            event.serving_component = result.prefetch_component
            if result.served_by_prefetch:
                self.prefetcher.on_prefetch_hit(line, result.hit_level)
            if observe_access is not None:
                observe_access(event)
            requests = on_access(event) if on_access is not None else None
            if requests:
                self._issue_requests(requests, issue, pc)
        elif result.served_by_prefetch:
            self.prefetcher.on_prefetch_hit(line, result.hit_level)
        if result.primary_miss and self._on_fill is not None:
            self._on_fill(line, 1)

    def _issue_requests(self, requests, cycle: int, pc: int) -> None:
        hierarchy = self.hierarchy
        on_fill = self._on_fill
        for request in requests:
            issued = hierarchy.prefetch(request.line, cycle,
                                        target_level=request.target_level,
                                        component=request.component,
                                        pc=pc)
            if issued and on_fill is not None:
                on_fill(request.line, request.target_level,
                        prefetched=True)

    # ------------------------------------------------------------------
    def run(self) -> CoreStats:
        """Run the whole trace, on one of two paths.

        A core :func:`~repro.engine.kernel.kernel_flags` accepts, on the
        stock cold hierarchy
        (:func:`~repro.engine.segmented._stock_cold_hierarchy`), runs the
        segmented tier (:mod:`repro.engine.segmented`: each distinct
        stretch of the trace compiled to straight-line code, with the
        scalar island of its segment event inline), bit-identically.
        Every other core runs the generic loop:
        object traces, a sampler, telemetry, a dynamic branch predictor,
        ``REPRO_KERNEL=generic``, warm core state, a subclassed memory
        model and DRAM telemetry.  Selected here rather than in
        ``__init__`` because telemetry attaches after construction.
        The multicore harness does not call ``run``: it makes the same
        decision for all of a mix's cores at once and resumes each
        core's bursts itself (:mod:`repro.engine.multicore`).
        """
        from repro.engine.kernel import kernel_flags
        from repro.engine.segmented import maybe_run_segmented

        flags = kernel_flags(self)
        if flags is not None:
            result = maybe_run_segmented(self, flags)
            if result is not None:
                return result
        step = self.step
        while step():
            pass
        return self.stats
