"""Differential tests: TPC's access paths against their previous
implementations.

The coordinator's ``route``, T2's access, distance and claim paths with
its loop detector, the stride identifier table, P1's claims and access
path, and C1's region and instruction monitors were rewritten for speed:
state members compared as module globals, a recency-ordered SIT and
region monitor instead of ``min(key=...)`` victim scans, a claim set
instead of a scan over P1's confirmed pairs, and no request list per
access in the coordinator.  None of that may change a request, a claim
or a state transition.  The classes below are the earlier
implementations, kept verbatim (renamed, and without ``storage_bits``,
docstrings and the accessors nothing called) as the reference.

Cross-tier identity (the segmented tier against the generic loop, and
``repro fuzz``) runs the same component code on both sides, so it cannot
see a bug in such a rewrite.  These tests can:

* random programs (strided, pointer-array, pointer-chain, region and
  random kernels in loops, with noise branches, call sites and store
  streams) feed a new and a reference component side by side; every
  hook's return value, every claim and the final table contents must
  agree.  The streams overflow every bounded table: T2's SIT and NLPCT,
  P1's SIT, C1's region monitor, instruction monitor and
  recent-regions window.
* whole cells: ``tpc``, ``tpc-adaptive``, ``t2``, ``p1`` and ``c1`` built
  from the reference classes equal the registry's cells on every
  reported figure, over the stress suite and fuzz seeds, on the
  segmented tier and the generic loop.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from repro.core.adaptive import AdaptiveCoordinator
from repro.core.base import AccessEvent, Prefetcher, PrefetchRequest
from repro.core.c1 import C1Prefetcher
from repro.core.composite import CompositePrefetcher
from repro.core.coordinator import Coordinator
from repro.core.p1 import P1Prefetcher
from repro.core.sit import InstructionState, StrideIdentifierTable
from repro.core.t2 import T2Prefetcher
from repro.core.taint import TaintUnit
from repro.engine.kernel import pinned_kernel
from repro.engine.system import simulate
from repro.identity import diff_fields, identity_tuple
from repro.isa.instructions import OpClass
from repro.isa.trace import BACKWARD_TAKEN, TraceRecord
from repro.prefetcher_registry import make_prefetcher
from repro.telemetry.events import TRAINED
from repro.workloads import get_suite
from repro.workloads.fuzz import fuzz_workload

_BRANCH = int(OpClass.BRANCH)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_ALU = int(OpClass.ALU)

STRIDED_THRESHOLD = 16
NON_STRIDED_THRESHOLD = 4
EARLY_ISSUE_THRESHOLD = 4
_VERIFY_THRESHOLD = 4
_MAX_WALKS = 12
_WORD_MASK = ~7
REGION_LINES = 16
REGION_SHIFT = 4
REGION_MASK = REGION_LINES - 1
DENSE_LINE_THRESHOLD = 6
DECIDE_AFTER = 4
DENSE_PROBABILITY = 0.75


# ----------------------------------------------------------------------
# Reference implementations
# ----------------------------------------------------------------------
class ReferenceSitEntry:

    __slots__ = ("mpc", "last_addr", "delta", "same_count", "diff_count",
                 "lru", "pointer_delta", "is_pointer", "run_estimate")

    def __init__(self, mpc: int, addr: int, lru: int) -> None:
        self.mpc = mpc
        self.last_addr = addr
        self.delta = 0
        self.same_count = 0
        self.diff_count = 0
        self.lru = lru
        # P1 extension (paper Sec. IV-B-1): a strided instruction whose
        # *value* feeds a dependent load's address keeps that constant
        # offset here.
        self.pointer_delta: int | None = None
        self.is_pointer = False
        # Learned typical run length of this stream (0 = unknown / long).
        # A stream that repeatedly breaks after N stable deltas (e.g. a
        # 16-line region sweep) teaches T2 not to prefetch past N.
        self.run_estimate = 0.0

    def observe(self, addr: int) -> int:
        delta = addr - self.last_addr
        self.last_addr = addr
        if delta == self.delta:
            self.same_count += 1
            self.diff_count = 0
        else:
            if self.same_count >= 4:
                # A proven run just ended: learn its length.
                if self.run_estimate == 0.0:
                    self.run_estimate = float(self.same_count)
                else:
                    self.run_estimate += 0.5 * (
                        self.same_count - self.run_estimate
                    )
            self.delta = delta
            self.same_count = 1
            self.diff_count += 1
        return delta

    @property
    def stable(self) -> bool:
        return self.delta != 0 and self.same_count >= EARLY_ISSUE_THRESHOLD


class ReferenceSit:

    def __init__(self, entries: int = 32) -> None:
        self.entries = entries
        self._table: dict[int, ReferenceSitEntry] = {}
        self._states: dict[int, InstructionState] = {}
        self._clock = 0

    def reset(self) -> None:
        self._table.clear()
        self._states.clear()
        self._clock = 0

    # ------------------------------------------------------------------
    # I-cache state bits
    # ------------------------------------------------------------------
    def state_of(self, pc: int) -> InstructionState:
        return self._states.get(pc, InstructionState.UNKNOWN)

    def set_state(self, pc: int, state: InstructionState) -> None:
        self._states[pc] = state

    # ------------------------------------------------------------------
    # SIT entries
    # ------------------------------------------------------------------
    def get(self, mpc: int) -> ReferenceSitEntry | None:
        entry = self._table.get(mpc)
        if entry is not None:
            self._clock += 1
            entry.lru = self._clock
        return entry

    def allocate(self, mpc: int, addr: int) -> ReferenceSitEntry:
        self._clock += 1
        entry = self._table.get(mpc)
        if entry is not None:
            entry.lru = self._clock
            return entry
        if len(self._table) >= self.entries:
            victim = min(self._table, key=lambda k: self._table[k].lru)
            del self._table[victim]
        entry = ReferenceSitEntry(mpc, addr, self._clock)
        self._table[mpc] = entry
        return entry

    def drop(self, mpc: int) -> None:
        self._table.pop(mpc, None)

    def __len__(self) -> int:
        return len(self._table)


class ReferenceLoopDetector:

    def __init__(self, nlpct_entries: int = 16,
                 nlpct_strike_limit: int = 2,
                 ewma_weight: float = 0.25) -> None:
        self.nlpct_entries = nlpct_entries
        self.nlpct_strike_limit = nlpct_strike_limit
        self.ewma_weight = ewma_weight
        self._lr_pc: int | None = None
        self._lr_target: int | None = None
        self._lr_confirmed = False
        self._nlpct: dict[int, None] = {}
        self._strikes: dict[int, int] = {}
        self._last_iteration_cycle: int | None = None
        self._iteration_time: float = 0.0
        self._iteration_time_fast: float = 0.0
        self.loop_pc: int | None = None
        self.iterations = 0

    def reset(self) -> None:
        self.__init__(self.nlpct_entries, self.nlpct_strike_limit,
                      self.ewma_weight)

    # ------------------------------------------------------------------
    @property
    def in_loop(self) -> bool:
        return self.loop_pc is not None

    @property
    def iteration_time(self) -> float:
        return self._iteration_time_fast if self.in_loop else 0.0

    def is_non_loop(self, pc: int) -> bool:
        return pc in self._nlpct

    # ------------------------------------------------------------------
    def observe_backward_branch(self, pc: int, target_pc: int,
                                cycle: int) -> bool:
        if pc in self._nlpct:
            return False

        if self._lr_pc == pc and self._lr_target == target_pc:
            # Back-to-back instance: the loop is identified.
            self._lr_confirmed = True
            self.loop_pc = pc
            self._strikes.pop(pc, None)
            if self._last_iteration_cycle is not None:
                delta = cycle - self._last_iteration_cycle
                if self._iteration_time == 0.0:
                    self._iteration_time = float(delta)
                else:
                    w = self.ewma_weight
                    self._iteration_time += w * (delta - self._iteration_time)
                fast = self._iteration_time_fast
                if fast == 0.0 or delta <= fast:
                    self._iteration_time_fast = float(delta)
                else:
                    self._iteration_time_fast += 0.02 * (delta - fast)
            self._last_iteration_cycle = cycle
            self.iterations += 1
            return True

        # A different backward branch displaces the LR.
        if self._lr_pc is not None and not self._lr_confirmed:
            strikes = self._strikes.get(self._lr_pc, 0) + 1
            if strikes >= self.nlpct_strike_limit:
                self._insert_nlpct(self._lr_pc)
                self._strikes.pop(self._lr_pc, None)
            else:
                self._strikes[self._lr_pc] = strikes
        if self._lr_pc is not None and self._lr_confirmed:
            # Leaving a confirmed loop: clear loop context.
            self.loop_pc = None
            self._iteration_time = 0.0
        self._lr_pc = pc
        self._lr_target = target_pc
        self._lr_confirmed = False
        self._last_iteration_cycle = cycle
        return False

    def _insert_nlpct(self, pc: int) -> None:
        if len(self._nlpct) >= self.nlpct_entries:
            self._nlpct.pop(next(iter(self._nlpct)))
        self._nlpct[pc] = None


class ReferenceT2(Prefetcher):
    name = "t2"
    component_tag = "T2"
    needs_instruction_stream = True
    feed_rows = BACKWARD_TAKEN
    always_observe = True

    def __init__(self, sit_entries: int = 32, margin: int = 32,
                 max_distance: int = 128, min_distance: int = 1,
                 catch_up_burst: int = 4,
                 target_level: int = 1,
                 activate_on_miss: bool = True,
                 use_mpc: bool = True,
                 strided_threshold: int = STRIDED_THRESHOLD,
                 non_strided_threshold: int = NON_STRIDED_THRESHOLD) -> None:
        self.margin = margin
        self.max_distance = max_distance
        self.min_distance = min_distance
        self.catch_up_burst = catch_up_burst
        self.target_level = target_level
        self.activate_on_miss = activate_on_miss
        self.use_mpc = use_mpc
        self.strided_threshold = strided_threshold
        self.non_strided_threshold = non_strided_threshold
        self.sit = ReferenceSit(sit_entries)
        self.loops = ReferenceLoopDetector()
        # PCs P1 identified as strided-pointer triggers: double distance.
        self.boosted_pcs: set[int] = set()
        self._amat = 150.0
        self._last_prefetch_addr: dict[int, int] = {}
        self._distance_scale = 1
        self._window_late = 0
        self._window_useful = 0
        self._window_accesses = 0

    def reset(self) -> None:
        self.sit.reset()
        self.loops.reset()
        self.boosted_pcs = set()
        self._amat = 150.0
        self._last_prefetch_addr.clear()
        self._distance_scale = 1
        self._window_late = 0
        self._window_useful = 0
        self._window_accesses = 0

    # ------------------------------------------------------------------
    def observe_instruction(self, record, cycle: int) -> None:
        if record.opc == _BRANCH and record.taken and \
                record.target_pc < record.pc:
            self.loops.observe_backward_branch(record.pc, record.target_pc,
                                               cycle)

    # ------------------------------------------------------------------
    def claims(self, pc: int) -> bool:
        state = self.sit.state_of(pc)
        return state == InstructionState.STRIDED

    def prefetch_distance(self, pc: int, proven_length: int | None = None
                          ) -> int:
        t_iter = self.loops.iteration_time
        if t_iter <= 0:
            distance = self.catch_up_burst
        else:
            distance = int((self._amat + self.margin) / t_iter) + 1
        if pc in self.boosted_pcs:
            distance *= 2
        distance *= self._distance_scale
        distance = max(self.min_distance, min(distance, self.max_distance))
        if proven_length is not None:
            distance = max(self.min_distance, min(distance, proven_length))
        return distance

    # ------------------------------------------------------------------
    def on_access(self, event: AccessEvent):
        if event.is_load and event.latency >= 16:
            # AMAT tracks the latency a prefetch must hide: the average
            # *memory* (beyond-L1) access time.  Hits are excluded, and
            # the filter is asymmetric — rising fast on slow loads,
            # decaying slowly — because a *late* prefetch partially hides
            # latency and would otherwise drag the estimate (and thus the
            # distance) down into a stable-but-late equilibrium.
            if event.latency > self._amat:
                self._amat += 0.5 * (event.latency - self._amat)
            else:
                self._amat += 0.02 * (event.latency - self._amat)

        # Lateness feedback (FDP-style): the AMAT/T_iter formula targets
        # latency, but under bandwidth queueing prefetches must also run
        # *deeper* to keep enough requests in flight.  If our useful
        # prefetches keep arriving late, escalate the distance.
        self._window_accesses += 1
        if event.served_by_prefetch and event.serving_component == "T2":
            self._window_useful += 1
            if event.latency >= 16:
                self._window_late += 1
        if self._window_accesses >= 512:
            if self._window_useful >= 32:
                late_fraction = self._window_late / self._window_useful
                if late_fraction > 0.30 and self._distance_scale < 8:
                    self._distance_scale *= 2
                elif late_fraction < 0.05 and self._distance_scale > 1:
                    self._distance_scale //= 2
            self._window_accesses = 0
            self._window_useful = 0
            self._window_late = 0

        pc = event.pc
        key = event.mpc if self.use_mpc else pc
        sit = self.sit
        state = sit.state_of(pc)

        if state == InstructionState.UNKNOWN:
            if self.activate_on_miss and not event.primary_miss:
                return None
            # Activation on primary miss (paper's first modification);
            # the ablation variant tracks every instruction.
            sit.set_state(pc, InstructionState.OBSERVATION)
            sit.allocate(key, event.addr)
            return None

        if state == InstructionState.NON_STRIDED:
            return None

        entry = sit.get(key)
        if entry is None:
            # Entry evicted from the SIT; restart observation.
            if state == InstructionState.STRIDED:
                sit.set_state(pc, InstructionState.OBSERVATION)
            sit.allocate(key, event.addr)
            return None

        entry.observe(event.addr)

        if state == InstructionState.OBSERVATION:
            if entry.same_count >= self.strided_threshold:
                sit.set_state(pc, InstructionState.STRIDED)
            elif entry.diff_count >= self.non_strided_threshold:
                sit.set_state(pc, InstructionState.NON_STRIDED)
                sit.drop(key)
                return None
            if not entry.stable:
                return None

        return self._generate(event, entry, key)

    # ------------------------------------------------------------------
    def _generate(self, event: AccessEvent, entry,
                  key: int) -> list[PrefetchRequest] | None:
        delta = entry.delta
        if delta == 0:
            return None
        distance = self.prefetch_distance(event.pc, entry.same_count)
        # Never run past the expected end of the run: a stream that has
        # repeatedly broken after ~N stable deltas is prefetched at most
        # (N - position) ahead.
        if entry.run_estimate > 0:
            remaining = int(entry.run_estimate) - entry.same_count
            if remaining <= 0:
                return None
            distance = min(distance, remaining)
        target_addr = event.addr + distance * delta
        if target_addr < 0:
            return None

        # Walk stream addresses from where we left off to the target,
        # bounded per access (the paper's catch-up FSM issues a burst).
        direction = 1 if delta > 0 else -1
        last_addr = self._last_prefetch_addr.get(key)
        fresh_stream = (
            last_addr is None
            or (target_addr - last_addr) * direction < 0
            or abs(target_addr - last_addr)
            > (distance + 4 * self.catch_up_burst) * abs(delta)
        )
        if fresh_stream:
            last_addr = event.addr  # new or restarted stream: catch up

        requests: list[PrefetchRequest] = []
        addr = last_addr
        current_line = event.line
        previous_line = addr >> 6
        budget = 4 * self.catch_up_burst
        while (target_addr - addr) * direction > 0 and budget > 0:
            addr += delta
            budget -= 1
            if addr < 0:
                break
            line = addr >> 6
            if line != current_line and line != previous_line:
                requests.append(
                    PrefetchRequest(line, self.target_level, "T2")
                )
            previous_line = line
        self._last_prefetch_addr[key] = addr
        return requests or None


class _ReferencePairTracker:

    __slots__ = ("delta", "count")

    def __init__(self) -> None:
        self.delta: int | None = None
        self.count = 0

    def observe(self, delta: int) -> None:
        if delta == self.delta:
            self.count += 1
        else:
            self.delta = delta
            self.count = 1

    @property
    def confirmed(self) -> bool:
        return self.count >= _VERIFY_THRESHOLD


class _ReferenceChainState:

    __slots__ = ("offset", "frontier", "depth", "recent", "miss_streak",
                 "next_hop_ready", "requested_lines")

    def __init__(self, offset: int) -> None:
        self.offset = offset
        self.frontier: int | None = None
        self.depth = 0
        self.recent: deque[int] = deque(maxlen=16)
        self.miss_streak = 0
        self.next_hop_ready = 0
        self.requested_lines: deque[int] = deque(maxlen=32)

    def reset_frontier(self) -> None:
        self.frontier = None
        self.depth = 0
        self.recent.clear()
        self.miss_streak = 0
        self.next_hop_ready = 0
        self.requested_lines.clear()


class ReferenceP1(Prefetcher):
    name = "p1"
    component_tag = "P1"
    needs_instruction_stream = True
    wants_memory_image = True
    always_observe = True

    def __init__(self, sit_entries: int = 8, lookahead: int = 8,
                 chain_depth: int = 4, miss_timeout: int = 8,
                 target_level: int = 1) -> None:
        self.lookahead = lookahead
        self.chain_depth = chain_depth
        self.miss_timeout = miss_timeout
        self.target_level = target_level
        self.sit = ReferenceSit(sit_entries)
        self.taint = TaintUnit()
        self._memory: dict[int, int] = {}
        # Detection state.
        self._candidates: dict[int, int] = {}    # pc -> primary-miss count
        self._resolved: set[int] = set()
        self._walks = 0
        self._last_trigger_value: dict[int, int] = {}
        # pc of trigger -> {dependent pc -> tracker}
        self._aop_verify: dict[int, dict[int, _ReferencePairTracker]] = {}
        self._chain_verify: dict[int, _ReferencePairTracker] = {}
        # Confirmed patterns.
        self._aop_pairs: dict[int, list[tuple[int, int]]] = {}
        self._chains: dict[int, _ReferenceChainState] = {}
        self.pointer_trigger_pcs: set[int] = set()
        self._rtt = 150.0  # memory round-trip estimate for hop serialization

    def reset(self) -> None:
        self.sit.reset()
        self.taint.reset()
        self._memory = {}
        self._candidates = {}
        self._resolved = set()
        self._walks = 0
        self._last_trigger_value = {}
        self._aop_verify = {}
        self._chain_verify = {}
        self._aop_pairs = {}
        self._chains = {}
        self.pointer_trigger_pcs = set()
        self._rtt = 150.0

    def set_memory(self, memory: dict[int, int]) -> None:
        self._memory = memory

    # ------------------------------------------------------------------
    def claims(self, pc: int) -> bool:
        if pc in self._aop_pairs or pc in self._chains:
            return True
        for pairs in self._aop_pairs.values():
            for dependent_pc, _ in pairs:
                if dependent_pc == pc:
                    return True
        return False

    # ------------------------------------------------------------------
    # Detection: taint walks over the instruction stream
    # ------------------------------------------------------------------
    @property
    def feed_gate(self) -> TaintUnit:
        return self.taint

    def observe_instruction(self, record, cycle: int) -> None:
        if not self.taint.armed:
            return
        completed = self.taint.observe(record)
        if not completed:
            return
        trigger = self.taint.trigger_pc
        self._walks += 1
        if self.taint.trigger_self_dependent and trigger not in self._chains:
            self._chain_verify.setdefault(trigger, _ReferencePairTracker())
        verify = self._aop_verify.setdefault(trigger, {})
        for load_pc in self.taint.completed_loads:
            if load_pc != trigger and load_pc not in verify:
                verify[load_pc] = _ReferencePairTracker()
        if self._walks >= _MAX_WALKS:
            self._finish_walks(trigger)

    def _finish_walks(self, trigger: int) -> None:
        if trigger not in self._aop_pairs and trigger not in self._chains:
            self._resolved.add(trigger)
        self._aop_verify.pop(trigger, None)
        self._chain_verify.pop(trigger, None)
        self.taint.disarm()
        self._walks = 0
        self._select_trigger()

    def _select_trigger(self) -> None:
        best_pc = None
        best_count = 1  # require at least 2 primary misses
        for pc, count in self._candidates.items():
            if pc in self._resolved or pc in self._aop_pairs or \
                    pc in self._chains:
                continue
            if count > best_count:
                best_count = count
                best_pc = pc
        if best_pc is not None:
            self._walks = 0
            self.taint.arm(best_pc)

    # ------------------------------------------------------------------
    # Access stream
    # ------------------------------------------------------------------
    def on_access(self, event: AccessEvent):
        if not event.is_load:
            return None
        pc = event.pc

        # Candidate discovery: recurring slow loads.  A chain load often
        # merges into an in-flight miss of a sibling field on the same
        # line (never a *primary* miss), so high observed latency also
        # qualifies.
        slow = event.primary_miss or event.latency >= 16
        if slow and pc not in self._resolved:
            self._candidates[pc] = self._candidates.get(pc, 0) + 1
            if self.taint.trigger_pc is None:
                self._select_trigger()

        # Track stride state for every interesting load (trigger streams).
        entry = self.sit.get(event.mpc)
        if entry is None and (
            pc == self.taint.trigger_pc or pc in self._aop_pairs
        ):
            entry = self.sit.allocate(event.mpc, event.addr)
        elif entry is not None:
            entry.observe(event.addr)

        if pc == self.taint.trigger_pc:
            self._verify_trigger(event)
        self._check_dependent(event)

        # The request list is allocated only on the (rare) paths that can
        # actually prefetch; most loads return without touching it.
        requests: list[PrefetchRequest] | None = None

        pairs = self._aop_pairs.get(pc)
        if pairs is not None and entry is not None:
            requests = []
            self._aop_prefetch(event, entry, pairs, requests)

        chain = self._chains.get(pc)
        if chain is not None:
            if requests is None:
                requests = []
            self._chain_prefetch(event, chain, requests)

        return requests or None

    # ------------------------------------------------------------------
    def _verify_trigger(self, event: AccessEvent) -> None:
        pc = event.pc
        previous_value = self._last_trigger_value.get(pc)
        self._last_trigger_value[pc] = event.value

        # Pointer-chain check: addr_n - value_{n-1} constant?
        tracker = self._chain_verify.get(pc)
        if tracker is not None and previous_value is not None and \
                previous_value != 0:
            tracker.observe(event.addr - previous_value)
            if tracker.confirmed:
                self._chains[pc] = _ReferenceChainState(tracker.delta)
                self.pointer_trigger_pcs.add(pc)
                self._chain_verify.pop(pc, None)
                self._disarm(pc)
                return

        # Array-of-pointers check for each tainted dependent load happens
        # in the dependent's own access (it needs addr_j); here we only
        # refresh value_i.  Dependent verification is driven below.

    def _disarm(self, pc: int) -> None:
        self._aop_verify.pop(pc, None)
        self.taint.disarm()
        self._walks = 0
        self._select_trigger()

    def _check_dependent(self, event: AccessEvent) -> None:
        if not self._aop_verify:
            return
        for trigger_pc, verify in list(self._aop_verify.items()):
            tracker = verify.get(event.pc)
            if tracker is None:
                continue
            trigger_value = self._last_trigger_value.get(trigger_pc)
            if trigger_value is None or trigger_value == 0:
                continue
            tracker.observe(event.addr - trigger_value)
            if tracker.confirmed:
                pairs = self._aop_pairs.setdefault(trigger_pc, [])
                pairs.append((event.pc, tracker.delta))
                self.pointer_trigger_pcs.add(trigger_pc)
                verify.pop(event.pc, None)
                if trigger_pc == self.taint.trigger_pc:
                    self._disarm(trigger_pc)
                return

    # ------------------------------------------------------------------
    def _aop_prefetch(self, event: AccessEvent, entry, pairs,
                      requests: list[PrefetchRequest]) -> None:
        if not entry.stable or entry.delta == 0:
            return
        future_addr = event.addr + self.lookahead * entry.delta
        if future_addr < 0:
            return
        future_value = self._memory.get(future_addr & _WORD_MASK)
        if not future_value:
            return
        for _, offset in pairs:
            target = future_value + offset
            if target >= 0:
                requests.append(
                    PrefetchRequest(target >> 6, self.target_level, "P1")
                )

    def _chain_prefetch(self, event: AccessEvent, chain: _ReferenceChainState,
                        requests: list[PrefetchRequest]) -> None:
        # Correction: did we predict this address?
        if chain.recent:
            if event.addr in chain.recent:
                chain.recent.remove(event.addr)
                chain.miss_streak = 0
            else:
                chain.miss_streak += 1
                if chain.miss_streak > self.miss_timeout:
                    chain.reset_frontier()

        # Track the memory round-trip time for hop serialization.
        if event.latency >= 16:
            self._rtt += 0.2 * (event.latency - self._rtt)

        if chain.frontier is None:
            if event.value == 0:
                return  # end of list
            chain.frontier = event.value + chain.offset
            chain.depth = 1
            if chain.frontier >= 0:
                line = chain.frontier >> 6
                chain.recent.append(chain.frontier)
                chain.requested_lines.append(line)
                chain.next_hop_ready = event.cycle + int(self._rtt)
                requests.append(
                    PrefetchRequest(line, self.target_level, "P1")
                )
            return

        # The trigger advanced one node: the frontier is now one less deep.
        if chain.depth > 0:
            chain.depth -= 1
        hops = 2 if chain.depth < self.chain_depth else 1
        now = event.cycle
        for _ in range(hops):
            if chain.depth >= self.chain_depth:
                break
            next_value = self._memory.get(chain.frontier & _WORD_MASK, 0)
            if next_value == 0:
                break  # null link: end of chain
            next_frontier = next_value + chain.offset
            if next_frontier < 0:
                break
            line = next_frontier >> 6
            if line in chain.requested_lines:
                # The pointer arrived with an earlier fill: free hop.
                pass
            elif now >= chain.next_hop_ready:
                # Previous prefetch has returned; this hop costs one RTT.
                chain.next_hop_ready = now + int(self._rtt)
            else:
                break  # still waiting on the previous fill
            chain.frontier = next_frontier
            chain.depth += 1
            chain.recent.append(next_frontier)
            if line not in chain.requested_lines:
                chain.requested_lines.append(line)
                requests.append(
                    PrefetchRequest(line, self.target_level, "P1")
                )


class _ReferenceRegionEntry:
    __slots__ = ("region", "line_vector", "instruction_vector", "lru")

    def __init__(self, region: int, lru: int) -> None:
        self.region = region
        self.line_vector = 0
        self.instruction_vector = 0
        self.lru = lru


class _ReferenceInstructionEntry:
    __slots__ = ("pc", "total_regions", "dense_regions")

    def __init__(self, pc: int) -> None:
        self.pc = pc
        self.total_regions = 0
        self.dense_regions = 0


class ReferenceC1(Prefetcher):
    name = "c1"
    component_tag = "C1"

    def __init__(self, rm_entries: int = 16, im_entries: int = 16,
                 dense_line_threshold: int = DENSE_LINE_THRESHOLD,
                 decide_after: int = DECIDE_AFTER,
                 dense_probability: float = DENSE_PROBABILITY,
                 target_level: int = 2,
                 recent_regions: int = 32) -> None:
        self.rm_entries = rm_entries
        self.im_entries = im_entries
        self.dense_line_threshold = dense_line_threshold
        self.decide_after = decide_after
        self.dense_probability = dense_probability
        self.target_level = target_level
        self.recent_regions = recent_regions
        self._rm: dict[int, _ReferenceRegionEntry] = {}
        self._im: list[_ReferenceInstructionEntry | None] = [None] * im_entries
        self._im_index: dict[int, int] = {}      # pc -> IM slot
        self._decided_dense: set[int] = set()
        self._decided_sparse: set[int] = set()
        self._recent: dict[int, None] = {}       # regions recently prefetched
        self._clock = 0

    def reset(self) -> None:
        self._rm.clear()
        self._im = [None] * self.im_entries
        self._im_index.clear()
        self._decided_dense.clear()
        self._decided_sparse.clear()
        self._recent.clear()
        self._clock = 0

    # ------------------------------------------------------------------
    def claims(self, pc: int) -> bool:
        return pc in self._decided_dense


    # ------------------------------------------------------------------
    def _monitor_instruction(self, pc: int) -> int | None:
        slot = self._im_index.get(pc)
        if slot is not None:
            return slot
        for i, entry in enumerate(self._im):
            if entry is None:
                self._im[i] = _ReferenceInstructionEntry(pc)
                self._im_index[pc] = i
                return i
        return None

    def _evict_region(self, entry: _ReferenceRegionEntry) -> None:
        dense = entry.line_vector.bit_count() > self.dense_line_threshold
        vector = entry.instruction_vector
        for slot in range(self.im_entries):
            if not vector & (1 << slot):
                continue
            instruction = self._im[slot]
            if instruction is None:
                continue
            instruction.total_regions += 1
            if dense:
                instruction.dense_regions += 1
            if instruction.total_regions >= self.decide_after:
                self._decide(slot, instruction)

    def _decide(self, slot: int, instruction: _ReferenceInstructionEntry) -> None:
        fraction = instruction.dense_regions / instruction.total_regions
        if fraction >= self.dense_probability:
            self._decided_dense.add(instruction.pc)
        else:
            self._decided_sparse.add(instruction.pc)
        self._im[slot] = None
        self._im_index.pop(instruction.pc, None)

    # ------------------------------------------------------------------
    def observe_access(self, event: AccessEvent) -> None:
        self._clock += 1
        line = event.line
        region = line >> REGION_SHIFT
        offset = line & REGION_MASK
        entry = self._rm.get(region)
        if entry is None:
            if len(self._rm) >= self.rm_entries:
                # LRU region; explicit scan (first minimum, like
                # min(key=)) avoids a lambda call per tracked region.
                victim_region = None
                victim_lru = None
                for tracked, candidate in self._rm.items():
                    if victim_lru is None or candidate.lru < victim_lru:
                        victim_lru = candidate.lru
                        victim_region = tracked
                self._evict_region(self._rm.pop(victim_region))
            entry = _ReferenceRegionEntry(region, self._clock)
            self._rm[region] = entry
        entry.line_vector |= 1 << offset
        entry.lru = self._clock

    def on_access(self, event: AccessEvent):
        pc = event.pc
        region = event.line >> REGION_SHIFT
        entry = self._rm.get(region)

        # Instruction monitoring: candidates are undecided instructions
        # that miss (C1 watches what the cache cannot already serve).
        if pc not in self._decided_dense and pc not in self._decided_sparse:
            if entry is None:
                return None
            if event.primary_miss:
                slot = self._monitor_instruction(pc)
                if slot is not None:
                    entry.instruction_vector |= 1 << slot
            elif pc in self._im_index:
                entry.instruction_vector |= 1 << self._im_index[pc]
            return None

        if pc not in self._decided_dense:
            return None

        # Dense instruction: carpet-bomb the region (once per region while
        # it stays in the recent-regions window).
        if region in self._recent:
            return None
        if len(self._recent) >= self.recent_regions:
            self._recent.pop(next(iter(self._recent)))
        self._recent[region] = None
        region_base = region << REGION_SHIFT
        return [
            PrefetchRequest(region_base + i, self.target_level, "C1")
            for i in range(REGION_LINES)
            if region_base + i != event.line
        ]


class ReferenceCoordinator:

    def __init__(self, components: list[Prefetcher],
                 extras: list[Prefetcher] | None = None) -> None:
        self.components = components
        self.extras = list(extras) if extras else []
        self._extra_owner: dict[int, int] = {}   # pc -> index into extras
        self._round_robin = 0
        self._extra_names = {p.name: i for i, p in enumerate(self.extras)}
        # (on_access, claims, always_observe, component) per component,
        # bound once: route() runs for every memory instruction.
        self._dispatch = [
            (c.on_access, c.claims, c.always_observe, c)
            for c in components
        ]
        self.telemetry = None
        self._trained_pcs: set[int] = set()

    def reset(self) -> None:
        self._extra_owner.clear()
        self._round_robin = 0
        self._trained_pcs.clear()

    # ------------------------------------------------------------------
    def route(self, event: AccessEvent) -> list[PrefetchRequest] | None:
        requests: list[PrefetchRequest] = []
        claimed = False
        pc = event.pc
        for on_access, claims, always_observe, component in self._dispatch:
            if claimed and not always_observe:
                continue
            result = on_access(event)
            if result:
                requests.extend(result)
            if not claimed and claims(pc):
                claimed = True
                telemetry = self.telemetry
                if telemetry is not None and pc not in self._trained_pcs:
                    self._trained_pcs.add(pc)
                    telemetry.emit(TRAINED, event.cycle, line=event.line,
                                   component=component.component_tag,
                                   pc=pc)
        if claimed or requests:
            return requests or None
        if not self.extras:
            return None
        return self._route_extra(event)

    def _route_extra(self, event: AccessEvent) -> list[PrefetchRequest] | None:
        pc = event.pc
        # Rebinding: the component whose prefetched line served this access
        # owns the instruction from now on.
        if event.served_by_prefetch and event.serving_component is not None:
            serving = self._extra_names.get(event.serving_component)
            if serving is not None:
                self._extra_owner[pc] = serving

        owner = self._extra_owner.get(pc)
        if owner is None:
            owner = self._round_robin % len(self.extras)
            self._round_robin += 1
            self._extra_owner[pc] = owner
        return self.extras[owner].on_access(event)

    # ------------------------------------------------------------------
    def claims(self, pc: int) -> bool:
        return any(component.claims(pc) for component in self.components)


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
class _Program:
    """A random program's retired instructions: ``ops`` holds
    ``(record, cycle, event)`` per instruction (``event`` is ``None``
    for non-memory instructions) and ``memory`` the data image its
    pointer kernels read.

    Each phase runs one to four kernels in a loop closed by a taken
    backward branch.  Kernels are strided streams (either sign, sub-line
    to page strides, some near address zero, some breaking after a fixed
    run, some constant), bundles of 12-24 such streams, random loads,
    pointer arrays with dependent loads, pointer chains, dense or sparse
    region sweeps, store streams, and inner branches that never repeat
    back to back; each load runs under one to three call sites
    (``ras_top``), and about half the kernels are reused from earlier
    phases.  Noise backward branches from a pool of 24 PCs and ALU ops
    between loads exercise the NLPCT and the taint unit.  Latencies,
    primary misses and prefetch-served hits (late or not, by any
    component) vary per phase."""

    def __init__(self, seed: int, length: int,
                 trainable: bool = False) -> None:
        self.rng = rng = random.Random(seed)
        self.ops: list = []
        self.memory: dict[int, int] = {}
        self.cycle = 0
        self._next_pc = 0x4000
        self._next_data = 1 << 22
        noise = [self._pc() for _ in range(24)]
        kernels: list = []
        while len(self.ops) < length:
            self.hit_p = rng.choice((0.2, 0.5, 0.8))
            self.late_p = rng.choice((0.0, 0.1, 0.6))
            self.served_p = rng.choice((0.05, 0.3))
            body = []
            if trainable and not kernels:
                kernels.append(self._steady())
                body.append(kernels[0])
            for _ in range(rng.randrange(1, 5)):
                if kernels and rng.random() < 0.5:
                    body.append(rng.choice(kernels))
                else:
                    kernel = self._kernel()
                    kernels.append(kernel)
                    body.append(kernel)
            loop_pc = self._pc()
            head = loop_pc - 4 * rng.randrange(4, 40)
            iterations = rng.randrange(8, 120)
            for i in range(iterations):
                for kernel in body:
                    kernel()
                    if rng.random() < 0.3:
                        self._alu()
                if rng.random() < 0.08:
                    pc = rng.choice(noise)
                    self._branch(pc, pc - 64, True)
                if rng.random() < 0.04:
                    pc = self._pc()
                    self._branch(pc, pc + 64, True)
                self._branch(loop_pc, head, i < iterations - 1)
        del self.ops[length:]

    # -- building blocks ----------------------------------------------
    def _pc(self) -> int:
        self._next_pc += 4 * self.rng.randrange(1, 4)
        return self._next_pc

    def _data(self, size: int) -> int:
        base = self._next_data
        self._next_data += size + 4096 * self.rng.randrange(1, 4)
        return base

    def _tick(self) -> int:
        self.cycle += self.rng.randrange(1, 40)
        return self.cycle

    def _branch(self, pc: int, target: int, taken: bool) -> None:
        record = TraceRecord(pc, _BRANCH, src1=1, taken=taken,
                             target_pc=target)
        self.ops.append((record, self._tick(), None))

    def _alu(self) -> None:
        rng = self.rng
        record = TraceRecord(self._pc() & 0xFFFF, _ALU,
                             dst=rng.randrange(32), src1=rng.randrange(32),
                             src2=rng.choice((-1, rng.randrange(32))))
        self.ops.append((record, self._tick(), None))

    def _access(self, pc: int, addr: int, *, value: int = 0, dst: int = -1,
                src1: int = -1, ras: int = 0, is_load: bool = True) -> None:
        rng = self.rng
        cycle = self._tick()
        hit = rng.random() < self.hit_p
        late = rng.random() < self.late_p
        if hit and not late:
            latency = rng.randrange(3, 6)
        else:
            latency = rng.choice((16, 40, 150, 200, 350))
        served = (hit or late) and rng.random() < self.served_p
        component = rng.choice(("T2", "T2", "P1", "C1", None)) \
            if served else None
        primary = not hit and rng.random() < 0.8
        record = TraceRecord(pc, _LOAD if is_load else _STORE, addr=addr,
                             value=value, dst=dst, src1=src1, ras_top=ras)
        event = AccessEvent(cycle, pc, pc ^ ras, addr, addr >> 6, is_load,
                            hit, primary, latency, value, dst,
                            served_by_prefetch=served,
                            serving_component=component)
        self.ops.append((record, cycle, event))

    # -- kernels ------------------------------------------------------
    def _kernel(self):
        kind = self.rng.choice(("stride", "stride", "stride", "wide",
                                "random", "aop", "aop", "chain", "chain",
                                "region", "region", "store", "branchy"))
        return getattr(self, "_" + kind)()

    def _wide(self):
        streams = [self._stride() for _ in range(self.rng.randrange(12, 25))]

        def step():
            for stream in streams:
                stream()
        return step

    def _branchy(self):
        pcs = [self._pc() for _ in range(self.rng.randrange(3, 7))]

        def step():
            for pc in pcs:
                self._branch(pc, pc - 32, True)
        return step

    def _sites(self) -> list[int]:
        return [self.rng.randrange(1, 1 << 12) << 2
                for _ in range(self.rng.randrange(1, 4))]

    def _stride(self, is_load: bool = True):
        rng = self.rng
        pc = self._pc()
        delta = rng.choice((8, 16, 64, 72, 128, 256, 4096, 0,
                            -8, -64, -72, -200, -4096))
        near_zero = delta < 0 and rng.random() < 0.3
        start = rng.randrange(0, 3000) if near_zero else self._data(1 << 16)
        run = rng.choice((None, None, 6, 10, 17, 40))
        sites = self._sites()
        dst = rng.randrange(32)
        state = {"addr": start, "n": 0}

        def step():
            if run is not None and state["n"] >= run:
                state["addr"] = start + rng.randrange(0, 64) * 64
                state["n"] = 0
            addr = state["addr"]
            if addr < 0:
                addr = state["addr"] = start
            self._access(pc, addr, dst=dst, src1=rng.randrange(32),
                         ras=rng.choice(sites), is_load=is_load)
            state["addr"] += delta
            state["n"] += 1
        return step

    def _store(self):
        return self._stride(is_load=False)

    def _steady(self):
        """One load PC under one call site at a constant stride of a
        line, never broken: a stream T2 trains on within a phase."""
        pc = self._pc()
        state = {"addr": self._data(1 << 16)}

        def step():
            self._access(pc, state["addr"], dst=2, src1=3)
            state["addr"] += 64
        return step

    def _random(self):
        rng = self.rng
        pc = self._pc()
        base = self._data(1 << 20)
        sites = self._sites()

        def step():
            self._access(pc, base + rng.randrange(1 << 17) * 8,
                         dst=rng.randrange(32), src1=rng.randrange(32),
                         ras=rng.choice(sites))
        return step

    def _aop(self):
        """``a[i]`` loads a pointer; dependents load fields of it."""
        rng = self.rng
        length = rng.randrange(32, 200)
        array = self._data(8 * length)
        objects = self._data(4096 * length)
        for i in range(length):
            self.memory[array + 8 * i] = (
                0 if rng.random() < 0.05
                else objects + 4096 * rng.randrange(length))
        trigger = self._pc()
        dependents = [(self._pc(), 8 * rng.randrange(0, 8))
                      for _ in range(rng.randrange(1, 3))]
        t_dst, index = rng.randrange(1, 16), rng.randrange(16, 32)
        sites = self._sites()
        state = {"i": 0}

        def step():
            i = state["i"] % length
            state["i"] += 1
            addr = array + 8 * i
            value = self.memory[addr]
            self._access(trigger, addr, value=value, dst=t_dst, src1=index,
                         ras=rng.choice(sites))
            for pc, offset in dependents:
                if rng.random() < 0.1:
                    self._alu()
                self._access(pc, value + offset, value=rng.randrange(1 << 20),
                             dst=rng.randrange(16, 32), src1=t_dst)
        return step

    def _chain(self):
        """``p = p->next``, sometimes ending in a null link."""
        rng = self.rng
        offset = 8 * rng.randrange(0, 4)
        nodes = [self._data(64) for _ in range(rng.randrange(20, 120))]
        rng.shuffle(nodes)
        for node, following in zip(nodes, nodes[1:] + [0]):
            self.memory[(node + offset) & _WORD_MASK] = (
                following if rng.random() < 0.97 else 0)
        pc = self._pc()
        reg = rng.randrange(1, 32)
        sites = self._sites()
        state = {"node": nodes[0]}

        def step():
            node = state["node"] or nodes[0]
            addr = node + offset
            value = self.memory.get(addr & _WORD_MASK, 0)
            self._access(pc, addr, value=value, dst=reg, src1=reg,
                         ras=rng.choice(sites))
            state["node"] = value
        return step

    def _region(self):
        """Sweeps 16-line regions, touching most lines or a few."""
        rng = self.rng
        pcs = [self._pc() for _ in range(rng.randrange(1, 3))]
        dense = rng.random() < 0.6
        base = self._data(1 << 22) >> 10 << 10
        state = {"region": 0, "left": []}

        def step():
            for _ in range(rng.randrange(1, 5)):
                if not state["left"]:
                    state["region"] += rng.randrange(1, 3)
                    count = rng.randrange(8, 17) if dense \
                        else rng.randrange(1, 5)
                    state["left"] = rng.sample(range(16), count)
                line = state["left"].pop()
                addr = base + state["region"] * 1024 + line * 64
                self._access(rng.choice(pcs), addr, dst=rng.randrange(32),
                             src1=rng.randrange(32))
        return step


def _program(seed: int, length: int = 6000,
             trainable: bool = False) -> _Program:
    """A random program of ``length`` instructions; a ``trainable`` one
    opens with a steady stride stream (:meth:`_Program._steady`)."""
    return _Program(seed, length, trainable)


# ----------------------------------------------------------------------
# State views (new and reference layouts side by side)
# ----------------------------------------------------------------------
def _sit_view(sit) -> tuple:
    table = sit._table
    if isinstance(sit, ReferenceSit):
        order = sorted(table, key=lambda k: table[k].lru)
        states = sit._states
    else:
        order = list(table)
        states = sit.states
    entries = [(k, table[k].mpc, table[k].last_addr, table[k].delta,
                table[k].same_count, table[k].diff_count,
                table[k].run_estimate) for k in order]
    return entries, list(states.items())


def _loops_view(loops) -> tuple:
    return (loops._lr_pc, loops._lr_target, loops._lr_confirmed,
            list(loops._nlpct), dict(loops._strikes),
            loops._last_iteration_cycle, loops._iteration_time_fast,
            loops.loop_pc, loops.iterations, loops.iteration_time)


def _t2_view(t2) -> tuple:
    return (_sit_view(t2.sit), _loops_view(t2.loops), t2._amat,
            dict(t2._last_prefetch_addr), t2._distance_scale,
            t2._window_late, t2._window_useful, t2._window_accesses)


def _p1_view(p1) -> tuple:
    taint = p1.taint
    return (
        _sit_view(p1.sit)[0],
        (taint.trigger_pc, taint.armed, taint._vector, taint._active,
         list(taint.tainted_loads), list(taint.completed_loads),
         taint.trigger_self_dependent),
        dict(p1._candidates), set(p1._resolved), p1._walks,
        dict(p1._last_trigger_value),
        {t: {d: (k.delta, k.count) for d, k in v.items()}
         for t, v in p1._aop_verify.items()},
        {t: (k.delta, k.count) for t, k in p1._chain_verify.items()},
        {t: list(v) for t, v in p1._aop_pairs.items()},
        {t: (c.offset, c.frontier, c.depth, list(c.recent), c.miss_streak,
             c.next_hop_ready, list(c.requested_lines))
         for t, c in p1._chains.items()},
        set(p1.pointer_trigger_pcs), p1._rtt,
    )


def _c1_view(c1) -> tuple:
    rm = c1._rm
    if isinstance(c1, ReferenceC1):
        order = sorted(rm, key=lambda r: rm[r].lru)
    else:
        order = list(rm)
    return (
        [(r, rm[r].region, rm[r].line_vector, rm[r].instruction_vector)
         for r in order],
        [None if e is None else (e.pc, e.total_regions, e.dense_regions)
         for e in c1._im],
        dict(c1._im_index), set(c1._decided_dense),
        set(c1._decided_sparse), list(c1._recent),
    )


# ----------------------------------------------------------------------
# Component streams
# ----------------------------------------------------------------------
def _drive(new, reference, program: _Program, view, *, observe=True,
           check_every: int = 500) -> None:
    """Feed ``program`` to both components as the generic loop does
    (instruction hook at dispatch, then the access hooks), comparing
    every return value and claim, and the state views every
    ``check_every`` instructions and at the end."""
    for prefetcher in (new, reference):
        prefetcher.reset()
        prefetcher.set_memory(program.memory)
    for n, (record, cycle, event) in enumerate(program.ops):
        if observe:
            new.observe_instruction(record, cycle)
            reference.observe_instruction(record, cycle)
        if event is not None:
            new.observe_access(event)
            reference.observe_access(event)
            got = new.on_access(event)
            want = reference.on_access(event)
            assert got == want, (n, record.pc, got, want)
            assert new.claims(event.pc) == reference.claims(event.pc), n
        if n % check_every == 0:
            assert view(new) == view(reference), n
    assert view(new) == view(reference)


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)
"""A seed has no smaller neighbour worth shrinking to: report the
failing seed as drawn."""

_T2_VARIANTS = [
    {},
    {"use_mpc": False},
    {"activate_on_miss": False},
    {"strided_threshold": 8, "non_strided_threshold": 2},
    {"catch_up_burst": 2, "min_distance": 3, "max_distance": 24,
     "margin": 0, "sit_entries": 8},
]


@pytest.mark.parametrize("kwargs", _T2_VARIANTS, ids=str)
@settings(max_examples=4, deadline=None, phases=_NO_SHRINK)
@given(seed=_SEEDS)
def test_t2_matches_reference(kwargs, seed):
    new, reference = T2Prefetcher(**kwargs), ReferenceT2(**kwargs)
    program = _program(seed)
    # Boosted PCs: every fifth load PC of the program.
    boosted = {event.pc for _, _, event in program.ops[::5] if event}
    _drive(new, reference, program, _t2_view)
    new.boosted_pcs.update(boosted)
    reference.boosted_pcs.update(boosted)
    for record, cycle, event in program.ops[:1500]:
        new.observe_instruction(record, cycle)
        reference.observe_instruction(record, cycle)
        if event is not None:
            assert new.on_access(event) == reference.on_access(event)
    assert _t2_view(new) == _t2_view(reference)


def test_t2_distance_formula_matches_reference():
    """``prefetch_distance`` over the formula's whole domain: in and out
    of a loop, boosted, scaled, clamped at both ends, with and without
    a proven length."""
    rng = random.Random(5)
    for kwargs in _T2_VARIANTS:
        new, reference = T2Prefetcher(**kwargs), ReferenceT2(**kwargs)
        for _ in range(3000):
            loop_pc = rng.choice((None, 0x99))
            fast = rng.choice((0.0, 0.5, 1.0, 3.0, 10.0, 47.5, 400.0))
            amat = rng.choice((3.0, 100.0, 150.0, 300.0, 1234.5))
            scale = rng.choice((1, 2, 4, 8))
            boosted = {0x10} if rng.random() < 0.5 else set()
            for t2 in (new, reference):
                t2.loops.loop_pc = loop_pc
                t2.loops._iteration_time_fast = fast
                t2._amat = amat
                t2._distance_scale = scale
                t2.boosted_pcs = boosted
            proven = rng.choice((None, 0, 1, 2, 5, 17, 200))
            pc = rng.choice((0x10, 0x20))
            assert (new.prefetch_distance(pc, proven)
                    == reference.prefetch_distance(pc, proven))


@settings(max_examples=6, deadline=None, phases=_NO_SHRINK)
@given(seed=_SEEDS)
def test_p1_matches_reference(seed):
    _drive(P1Prefetcher(), ReferenceP1(), _program(seed), _p1_view)


@pytest.mark.parametrize("kwargs", [{}, {"dense_line_threshold": 3},
                                    {"rm_entries": 4, "im_entries": 3,
                                     "recent_regions": 5}], ids=str)
@settings(max_examples=4, deadline=None, phases=_NO_SHRINK)
@given(seed=_SEEDS)
def test_c1_matches_reference(kwargs, seed):
    _drive(C1Prefetcher(**kwargs), ReferenceC1(**kwargs), _program(seed),
           _c1_view, observe=False)


@settings(max_examples=10, deadline=None, phases=_NO_SHRINK)
@given(seed=_SEEDS)
def test_sit_matches_reference(seed):
    """Random instances, allocations and drops over more keys than
    entries: ``observe`` answers as the reference's ``get`` followed by
    the entry's ``observe``, and the entries stay in the same LRU
    order."""
    rng = random.Random(seed)
    entries = rng.choice((1, 2, 8, 32))
    new, reference = StrideIdentifierTable(entries), ReferenceSit(entries)
    for _ in range(3000):
        key = rng.randrange(3 * entries + 2)
        addr = rng.randrange(1 << 12) * rng.choice((1, 8, 64))
        op = rng.random()
        if op < 0.5:
            got = new.observe(key, addr)
            want = reference.get(key)
            if want is not None:
                want.observe(addr)
            assert (got is None) == (want is None)
        elif op < 0.85:
            new.allocate(key, addr)
            reference.allocate(key, addr)
        else:
            new.drop(key)
            reference.drop(key)
        assert _sit_view(new) == _sit_view(reference)
        assert len(new) == len(reference)


# ----------------------------------------------------------------------
# The composite: coordinator over T2, P1 and C1
# ----------------------------------------------------------------------
class _Hub:
    """Records the coordinator's telemetry emissions."""

    def __init__(self) -> None:
        self.events: list = []

    def emit(self, kind, cycle, **fields) -> None:
        self.events.append((kind, cycle, sorted(fields.items())))


def _reference_tpc(order: str = "tpc", extras=()) -> CompositePrefetcher:
    """TPC from the reference classes (same composite wrapper), wired as
    ``make_tpc`` wires it."""
    build = {"t": ReferenceT2, "p": ReferenceP1, "c": ReferenceC1}
    parts = [build[c]() for c in order]
    composite = CompositePrefetcher(parts, extras=list(extras), name="tpc")
    composite.coordinator = ReferenceCoordinator(parts, list(extras))
    _wire(composite, parts)
    return composite


def _new_tpc(order: str = "tpc", extras=()) -> CompositePrefetcher:
    build = {"t": T2Prefetcher, "p": P1Prefetcher, "c": C1Prefetcher}
    parts = [build[c]() for c in order]
    composite = CompositePrefetcher(parts, extras=list(extras), name="tpc")
    _wire(composite, parts)
    return composite


def _wire(composite: CompositePrefetcher, parts) -> None:
    t2 = next((p for p in parts if p.name == "t2"), None)
    p1 = next((p for p in parts if p.name == "p1"), None)

    def wire() -> None:
        if t2 is not None and p1 is not None:
            t2.boosted_pcs = p1.pointer_trigger_pcs
    composite._wire_components = wire
    wire()


def _tpc_view(composite) -> tuple:
    views = {"t2": _t2_view, "p1": _p1_view, "c1": _c1_view}
    coordinator = composite.coordinator
    return (tuple(views[p.name](p) for p in composite.components),
            dict(coordinator._extra_owner), coordinator._round_robin,
            set(coordinator._trained_pcs))


@pytest.mark.parametrize("order", ["tpc", "cpt", "tp", "tc"])
@settings(max_examples=4, deadline=None, phases=_NO_SHRINK)
@given(seed=_SEEDS)
@example(seed=127680)
def test_tpc_matches_reference(order, seed):
    """The composites agree with the reference on random programs, and
    the check is not vacuous: some component trains.  Without C1 a
    random program may train nobody (seed 127680 trains neither T2 nor
    P1), so the ``tp`` order's programs open with a stream T2 trains
    on."""
    new, reference = _new_tpc(order), _reference_tpc(order)
    hubs = _Hub(), _Hub()
    new.coordinator.telemetry, reference.coordinator.telemetry = hubs
    _drive(new, reference, _program(seed, trainable=order == "tp"),
           _tpc_view)
    assert hubs[0].events == hubs[1].events
    assert any(kind == TRAINED for kind, _, _ in hubs[0].events)


@settings(max_examples=4, deadline=None, phases=_NO_SHRINK)
@given(seed=_SEEDS)
def test_tpc_with_extras_matches_reference(seed):
    new = _new_tpc(extras=[make_prefetcher("stride"), make_prefetcher("bop")])
    reference = _reference_tpc(
        extras=[make_prefetcher("stride"), make_prefetcher("bop")])
    _drive(new, reference, _program(seed), _tpc_view)


class _Scripted(Prefetcher):
    """A component whose requests and claims are a fixed function of
    its seed, the PC and how often it was called, so two copies answer
    a coordinator identically only if it calls them identically."""

    def __init__(self, name: str, seed: int, always_observe: bool) -> None:
        self.name = name
        self.seed = seed
        self.always_observe = always_observe
        self.calls: list = []

    def on_access(self, event):
        self.calls.append(("access", event.pc))
        roll = hash((self.seed, event.pc, len(self.calls))) % 5
        if roll == 0:
            return None
        if roll == 1:
            return []
        return [PrefetchRequest(event.line + i, 1, self.name)
                for i in range(roll - 1)]

    def claims(self, pc):
        self.calls.append(("claims", pc))
        return hash((self.seed, pc)) % 3 == 0


@settings(max_examples=20, deadline=None, phases=_NO_SHRINK)
@given(seed=_SEEDS)
def test_coordinator_matches_reference_on_scripted_components(seed):
    rng = random.Random(seed)
    shape = [(f"c{i}", rng.random() < 0.4) for i in range(rng.randrange(1, 5))]
    extra_names = [f"x{i}" for i in range(rng.randrange(0, 3))]

    def build(cls):
        parts = [_Scripted(name, seed, observe) for name, observe in shape]
        extras = [_Scripted(name, seed, False) for name in extra_names]
        coordinator = cls(parts, extras)
        coordinator.telemetry = _Hub()
        return coordinator, parts + extras

    (new, new_parts), (reference, reference_parts) = (
        build(Coordinator), build(ReferenceCoordinator))
    for n in range(2000):
        pc = rng.randrange(64)
        served = rng.random() < 0.3
        component = rng.choice(extra_names + ["T2", None]) if served else None
        event = AccessEvent(n, pc, pc, pc << 6, pc, True, served, not served,
                            3, 0, 1, served_by_prefetch=served,
                            serving_component=component)
        assert new.route(event) == reference.route(event), n
    assert ([p.calls for p in new_parts]
            == [p.calls for p in reference_parts])
    assert new.telemetry.events == reference.telemetry.events
    assert new._extra_owner == reference._extra_owner
    assert new._round_robin == reference._round_robin


def test_streams_evict_from_every_table():
    """A program of the differential tests' shape overflows every
    bounded table of the reference components (an allocation into a
    full table replaces a key), so the rewrites' eviction and decision
    paths are among what those tests compare.  C1's instruction monitor
    never evicts: it turns candidates away while full, and a decision
    frees a slot for the next one."""
    program = _program(12)
    composite = _reference_tpc()
    composite.reset()
    composite.set_memory(program.memory)
    t2, p1, c1 = composite.components
    tables = {"t2 sit": (t2.sit._table, 32), "p1 sit": (p1.sit._table, 8),
              "nlpct": (t2.loops._nlpct, 16), "rm": (c1._rm, 16),
              "recent": (c1._recent, 32)}
    evictions = dict.fromkeys(tables, 0)
    turned_away = 0
    monitored: set[int] = set()
    for record, cycle, event in program.ops:
        before = {name: set(table) for name, (table, _) in tables.items()}
        composite.observe_instruction(record, cycle)
        if event is not None:
            composite.observe_access(event)
            pc = event.pc
            undecided = pc not in c1._decided_dense \
                and pc not in c1._decided_sparse
            if len(c1._im_index) == 16 and pc not in c1._im_index \
                    and undecided and event.primary_miss \
                    and event.line >> REGION_SHIFT in c1._rm \
                    and not composite.coordinator.claims(pc):
                turned_away += 1
            composite.on_access(event)
            monitored.update(c1._im_index)
        for name, (table, size) in tables.items():
            keys = set(table)
            if len(before[name]) == size and keys - before[name] \
                    and before[name] - keys:
                evictions[name] += 1
    assert all(evictions.values()), evictions
    assert turned_away and len(monitored) > 16
    assert c1._decided_dense and c1._decided_sparse
    assert p1._aop_pairs and p1._chains
    states = set(t2.sit._states.values())
    assert states == {InstructionState.OBSERVATION, InstructionState.STRIDED,
                      InstructionState.NON_STRIDED}
    assert any(e.run_estimate for e in t2.sit._table.values())


# ----------------------------------------------------------------------
# Whole cells
# ----------------------------------------------------------------------
def _reference_cell(spec: str) -> Prefetcher:
    if spec == "t2":
        return ReferenceT2()
    if spec == "p1":
        return ReferenceP1()
    if spec == "c1":
        return ReferenceC1()
    composite = _reference_tpc()
    if spec == "tpc-adaptive":
        composite.name = spec
        composite.coordinator = AdaptiveCoordinator(composite.components, [])
    return composite


_CELL_SPECS = ["tpc", "tpc-adaptive", "t2", "p1", "c1"]


@pytest.fixture(scope="module")
def cell_traces():
    workloads = get_suite("stress") + [fuzz_workload(seed)
                                       for seed in range(3)]
    return [(workload.name, workload.trace()) for workload in workloads]


@pytest.mark.parametrize("tier", [None, "generic"])
@pytest.mark.parametrize("spec", _CELL_SPECS)
def test_cells_from_reference_classes_match(spec, tier, cell_traces):
    """Every figure of a cell whose prefetcher is built from the
    reference classes equals the registry's cell, on both replay
    paths (``None``: the automatic pick, the segmented tier)."""
    for name, trace in cell_traces:
        with pinned_kernel(tier):
            got = simulate(trace, make_prefetcher(spec))
            want = simulate(trace, _reference_cell(spec))
        assert got.kernel == want.kernel
        assert got.kernel.startswith("segmented+" if tier is None
                                     else "generic")
        assert identity_tuple(got) == identity_tuple(want), (
            name, diff_fields(got, want))
