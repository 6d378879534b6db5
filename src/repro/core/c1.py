"""C1 — the high-spatial-locality ("carpet bombing") component (paper
Sec. IV-C, Fig. 6).

A *region* is a super cache line of 16 consecutive lines (1 KB).  Two
structures cooperate:

**Region Monitor (RM)** — 16 entries, each tracking one region with a
16-bit cache-line vector (which lines were touched) and a 16-bit
instruction vector (which monitored instructions touched the region).

**Instruction Monitor (IM)** — 16 entries, one per candidate instruction,
with ``TotalRegions``/``DenseRegions`` counters.  Entries are never
evicted; they leave only when a decision is made: after ``decide_after``
(4) regions, an instruction whose dense fraction is at least
``dense_probability`` (3/4) is marked a *dense* instruction.

When a marked instruction executes, C1 prefetches the entire surrounding
region.  Accuracy is inherently lower than T2/P1, so the coordinator
targets C1's prefetches at L2 (paper Sec. IV-D).
"""

from __future__ import annotations

from repro.core.base import AccessEvent, Prefetcher, PrefetchRequest

REGION_LINES = 16
REGION_SHIFT = 4             # log2(REGION_LINES); line addrs are >= 0, so
REGION_MASK = REGION_LINES - 1  # shift/mask == floor-div/mod on this path
DENSE_LINE_THRESHOLD = 6     # "more than six bits set" => dense
DECIDE_AFTER = 4             # regions before deciding an instruction
DENSE_PROBABILITY = 0.75     # paper: > 3/4 dense probability


class _RegionEntry:
    __slots__ = ("region", "line_vector", "instruction_vector")

    def __init__(self, region: int) -> None:
        self.region = region
        self.line_vector = 0
        self.instruction_vector = 0


class _InstructionEntry:
    __slots__ = ("pc", "total_regions", "dense_regions")

    def __init__(self, pc: int) -> None:
        self.pc = pc
        self.total_regions = 0
        self.dense_regions = 0


class C1Prefetcher(Prefetcher):
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
        # Region -> entry in recency order: each access moves its region
        # to the end, so the LRU region is the first key.
        self._rm: dict[int, _RegionEntry] = {}
        self._im: list[_InstructionEntry | None] = [None] * im_entries
        self._im_index: dict[int, int] = {}      # pc -> IM slot
        self._decided_dense: set[int] = set()
        self._decided_sparse: set[int] = set()
        self._recent: dict[int, None] = {}       # regions recently prefetched

    def reset(self) -> None:
        self._rm.clear()
        self._im = [None] * self.im_entries
        self._im_index.clear()
        self._decided_dense.clear()
        self._decided_sparse.clear()
        self._recent.clear()

    # ------------------------------------------------------------------
    def claims(self, pc: int) -> bool:
        return pc in self._decided_dense

    # ------------------------------------------------------------------
    def _decide(self, slot: int, instruction: _InstructionEntry) -> None:
        fraction = instruction.dense_regions / instruction.total_regions
        if fraction >= self.dense_probability:
            self._decided_dense.add(instruction.pc)
        else:
            self._decided_sparse.add(instruction.pc)
        self._im[slot] = None
        self._im_index.pop(instruction.pc, None)

    # ------------------------------------------------------------------
    def observe_access(self, event: AccessEvent) -> None:
        """Region monitoring sees *every* access (paper Sec. IV-C)."""
        line = event.line
        region = line >> REGION_SHIFT
        rm = self._rm
        entry = rm.pop(region, None)
        if entry is None:
            if len(rm) >= self.rm_entries:
                # The LRU region leaves the RM: every monitored
                # instruction that touched it counts it, in slot order.
                victim = rm.pop(next(iter(rm)))
                vector = victim.instruction_vector
                if vector:
                    dense = victim.line_vector.bit_count() > \
                        self.dense_line_threshold
                    im = self._im
                    while vector:
                        low = vector & -vector
                        vector ^= low
                        slot = low.bit_length() - 1
                        instruction = im[slot]
                        if instruction is None:
                            continue
                        instruction.total_regions += 1
                        if dense:
                            instruction.dense_regions += 1
                        if instruction.total_regions >= self.decide_after:
                            self._decide(slot, instruction)
            entry = _RegionEntry(region)
        entry.line_vector |= 1 << (line & REGION_MASK)
        rm[region] = entry

    def on_access(self, event: AccessEvent):
        pc = event.pc
        if pc in self._decided_dense:
            # Dense instruction: carpet-bomb the region (once per region
            # while it stays in the recent-regions window).
            region = event.line >> REGION_SHIFT
            recent = self._recent
            if region in recent:
                return None
            if len(recent) >= self.recent_regions:
                recent.pop(next(iter(recent)))
            recent[region] = None
            region_base = region << REGION_SHIFT
            return [
                PrefetchRequest(region_base + i, self.target_level, "C1")
                for i in range(REGION_LINES)
                if region_base + i != event.line
            ]
        if pc in self._decided_sparse:
            return None

        # Instruction monitoring: candidates are undecided instructions
        # that miss (C1 watches what the cache cannot already serve).
        # A missing instruction takes the lowest free IM slot; IM
        # entries leave only when a decision is made.
        entry = self._rm.get(event.line >> REGION_SHIFT)
        if entry is None:
            return None
        slot = self._im_index.get(pc)
        if slot is None:
            if not event.primary_miss or \
                    len(self._im_index) >= self.im_entries:
                return None
            slot = self._im.index(None)
            self._im[slot] = _InstructionEntry(pc)
            self._im_index[pc] = slot
        entry.instruction_vector |= 1 << slot
        return None

    @property
    def storage_bits(self) -> int:
        # Table II: 16-entry IM (640 b) + 16-entry RM (1248 b) + 1 KB state.
        rm_bits = self.rm_entries * (46 + REGION_LINES + self.im_entries)
        im_bits = self.im_entries * (32 + 4 + 4)
        return rm_bits + im_bits + 1024 * 8
