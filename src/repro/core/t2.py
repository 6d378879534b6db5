"""T2 — the canonical-stride component (paper Sec. IV-A; also Kondguli &
Huang, ICCD 2017, paper ref [18]).

T2 only targets *canonical* strided streams: those generated by the
repetition of a single static instruction in an inner loop.  Three parts:

1. **Loop identification** — :class:`~repro.core.loop_detector.LoopDetector`
   marks iteration boundaries and measures ``T_iter``.
2. **Stride detection** — the
   :class:`~repro.core.sit.StrideIdentifierTable`, activated only when an
   instruction triggers a *primary L1 miss* (so one representative
   instruction tracks each stream even under loop unrolling), indexed by
   ``mPC = PC xor RAS.top`` to disambiguate call sites.
3. **Prefetching** — distance ``d = (AMAT + m) / T_iter`` iterations
   ahead, where AMAT is a running average of observed load latency.  The
   distance for instructions flagged by P1 as strided-pointer triggers is
   doubled (paper Sec. IV-B-1).

T2 prefetches into L1 (coordinator policy: its accuracy warrants it).
"""

from __future__ import annotations

from repro.core.base import AccessEvent, Prefetcher, PrefetchRequest
from repro.core.loop_detector import LoopDetector
from repro.core.sit import (
    InstructionState,
    NON_STRIDED_THRESHOLD,
    STRIDED_THRESHOLD,
    StrideIdentifierTable,
)
from repro.isa.instructions import OpClass
from repro.isa.trace import BACKWARD_TAKEN

_BRANCH = int(OpClass.BRANCH)


class T2Prefetcher(Prefetcher):
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
        self.sit = StrideIdentifierTable(sit_entries)
        self.loops = LoopDetector()
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

    def handles(self, event: AccessEvent) -> bool:
        """Whether T2 is actively working on this instruction (claimed or
        under observation) — used by the coordinator for stratification."""
        state = self.sit.state_of(event.pc)
        return state in (InstructionState.STRIDED,
                         InstructionState.OBSERVATION)

    def prefetch_distance(self, pc: int, proven_length: int | None = None
                          ) -> int:
        """``d = (AMAT + m) / T_iter`` in iterations, clamped.

        ``proven_length`` (consecutive stable deltas seen so far) caps the
        distance: a stream must prove it lives ``d`` iterations before T2
        runs ``d`` ahead, so short streams (e.g. a 16-line region sweep)
        never spray prefetches past their end.
        """
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

    @property
    def storage_bits(self) -> int:
        # Table II: 32-entry SIT + loop hardware + 2Kb of I-cache state
        # bits ~= 2.3 KB.
        return self.sit.storage_bits + self.loops.storage_bits + 2048 * 8
