"""P1 — the pointer component (paper Sec. IV-B, Fig. 4).

P1 targets two pointer patterns with timely prefetches:

**Array of pointers** (Sec. IV-B-1): a load *j* whose address is the
*value* of a strided load *i* plus a constant offset.  Detection arms the
taint propagation unit on a candidate trigger *i*; tainted loads found in
one loop iteration are verified over the following iterations (the
``addr_j - value_i`` delta must stay constant for 4 instances).  In steady
state, when *i* executes, P1 picks up the value of *i*'s stream
``lookahead`` iterations ahead (in hardware: snooped from the doubled-
distance stride prefetch fill; here: read from the memory image, see
DESIGN.md) and prefetches that value plus the offset.

**Pointer chains** (Sec. IV-B-2): a load *i* whose address register
transitively depends on its own previous destination.  The chain FSM keeps
a *frontier* — the predicted trigger address ``depth`` iterations ahead —
and advances it one link per trigger execution (two during catch-up,
reflecting the serialized nature of chain prefetches).  A correction
mechanism compares recent predictions against actual trigger addresses and
resets the frontier after ``miss_timeout`` consecutive disagreements
(the paper's anti-pollution timeout).

Table II configuration: 1-entry PtrPC (one taint walk at a time),
8-entry SIT, 64-bit TPU, 1 KB of state bits; 1.07 KB total.
"""

from __future__ import annotations

from collections import deque

from repro.core.base import AccessEvent, Prefetcher, PrefetchRequest
from repro.core.sit import StrideIdentifierTable
from repro.core.taint import TaintUnit

_VERIFY_THRESHOLD = 4    # consecutive constant deltas to confirm a pattern
_MAX_WALKS = 12          # taint walks before giving up on a trigger
_WORD_MASK = ~7


class _PairTracker:
    """Verifies one (trigger, dependent) array-of-pointers candidate."""

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


class _ChainState:
    """Steady-state FSM for one confirmed pointer chain.

    ``next_hop_ready`` enforces the serialization the paper describes:
    "the FSM can only issue the next prefetch after the previous prefetch
    returns the value."  A hop to a line the FSM already requested is free
    (the pointer arrived with that fill); a hop to a new line must wait
    one memory round trip.
    """

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


class P1Prefetcher(Prefetcher):
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
        self.sit = StrideIdentifierTable(sit_entries)
        self.taint = TaintUnit()
        self._memory: dict[int, int] = {}
        # Detection state.
        self._candidates: dict[int, int] = {}    # pc -> primary-miss count
        self._resolved: set[int] = set()
        self._walks = 0
        self._last_trigger_value: dict[int, int] = {}
        # pc of trigger -> {dependent pc -> tracker}
        self._aop_verify: dict[int, dict[int, _PairTracker]] = {}
        self._chain_verify: dict[int, _PairTracker] = {}
        # Confirmed patterns.
        self._aop_pairs: dict[int, list[tuple[int, int]]] = {}
        self._chains: dict[int, _ChainState] = {}
        # Every PC a confirmed pattern names: triggers, dependents, chains.
        self._claimed: set[int] = set()
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
        self._claimed = set()
        self.pointer_trigger_pcs = set()
        self._rtt = 150.0

    def set_memory(self, memory: dict[int, int]) -> None:
        self._memory = memory

    # ------------------------------------------------------------------
    def claims(self, pc: int) -> bool:
        return pc in self._claimed

    # ------------------------------------------------------------------
    # Detection: taint walks over the instruction stream
    # ------------------------------------------------------------------
    @property
    def feed_gate(self) -> TaintUnit:
        """The instruction feed acts only while a taint walk is armed
        (the unit arms in :meth:`on_access`, disarms in either hook)."""
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
            self._chain_verify.setdefault(trigger, _PairTracker())
        verify = self._aop_verify.setdefault(trigger, {})
        for load_pc in self.taint.completed_loads:
            if load_pc != trigger and load_pc not in verify:
                verify[load_pc] = _PairTracker()
        if self._walks >= _MAX_WALKS:
            self._finish_walks(trigger)

    def _finish_walks(self, trigger: int) -> None:
        """Give up on an unproductive trigger and move to the next one."""
        if trigger not in self._aop_pairs and trigger not in self._chains:
            self._resolved.add(trigger)
        self._aop_verify.pop(trigger, None)
        self._chain_verify.pop(trigger, None)
        self.taint.disarm()
        self._walks = 0
        self._select_trigger()

    def _eligible(self, pc: int, count: int) -> bool:
        """Whether candidate ``pc`` with ``count`` slow loads may be the
        trigger: a recurring miss (at least 2) that is neither resolved
        nor already a confirmed pattern."""
        return (count > 1 and pc not in self._resolved
                and pc not in self._aop_pairs and pc not in self._chains)

    def _arm(self, pc: int) -> None:
        self._walks = 0
        self.taint.arm(pc)

    def _select_trigger(self) -> None:
        """Arm the TPU on the hottest eligible candidate (the first seen
        among equal counts)."""
        best_pc = None
        best_count = 0
        for pc, count in self._candidates.items():
            if count > best_count and self._eligible(pc, count):
                best_count = count
                best_pc = pc
        if best_pc is not None:
            self._arm(best_pc)

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
            count = self._candidates.get(pc, 0) + 1
            self._candidates[pc] = count
            # With no trigger armed, only this load can have become
            # eligible: every disarm rescans at once (_finish_walks,
            # _disarm), the exclusion sets only grow, and only this
            # count moved.  So arm it where _select_trigger would.
            if self.taint.trigger_pc is None and self._eligible(pc, count):
                self._arm(pc)

        # Track stride state for every interesting load (trigger streams).
        trigger = self.taint.trigger_pc
        entry = self.sit.observe(event.mpc, event.addr)
        if entry is None and (pc == trigger or pc in self._aop_pairs):
            entry = self.sit.allocate(event.mpc, event.addr)

        if pc == trigger:
            self._verify_trigger(event)
        if self._aop_verify:
            self._check_dependent(event)

        # Only a confirmed pattern's trigger can prefetch; the request
        # list is allocated only on those (rare) paths.
        if pc not in self._claimed:
            return None
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
        """Per-iteration verification of the armed trigger's candidates."""
        pc = event.pc
        previous_value = self._last_trigger_value.get(pc)
        self._last_trigger_value[pc] = event.value

        # Pointer-chain check: addr_n - value_{n-1} constant?
        tracker = self._chain_verify.get(pc)
        if tracker is not None and previous_value is not None and \
                previous_value != 0:
            tracker.observe(event.addr - previous_value)
            if tracker.confirmed:
                self._chains[pc] = _ChainState(tracker.delta)
                self._claimed.add(pc)
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
        """Called for loads while an AoP verification is open.  The loop
        returns right after its only mutation of ``_aop_verify``."""
        for trigger_pc, verify in self._aop_verify.items():
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
                self._claimed.update((trigger_pc, event.pc))
                self.pointer_trigger_pcs.add(trigger_pc)
                verify.pop(event.pc, None)
                if trigger_pc == self.taint.trigger_pc:
                    self._disarm(trigger_pc)
                return

    # ------------------------------------------------------------------
    def _aop_prefetch(self, event: AccessEvent, entry, pairs,
                      requests: list[PrefetchRequest]) -> None:
        """Steady-state array-of-pointers prefetching."""
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

    def _chain_prefetch(self, event: AccessEvent, chain: _ChainState,
                        requests: list[PrefetchRequest]) -> None:
        """Steady-state pointer-chain prefetching with correction."""
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

    @property
    def storage_bits(self) -> int:
        # Table II: 1 PtrPC (32b) + 8-entry SIT + TPU (64b) + 1 KB state.
        sit_bits = self.sit.entries * (32 + 58 + 16 + 10 + 17)
        return 32 + sit_bits + 64 + 1024 * 8
