"""Offline LHF/MHF/HHF ground-truth classifier (paper Sec. V-C1).

The paper divides all accesses "subjectively into three categories with
increasing difficulty of prefetch":

* **LHF** (low-hanging fruit) — strided accesses,
* **MHF** — non-strided accesses with high spatial locality,
* **HHF** — everything else.

"The division is done offline to have a better approximation to ground
truth."  This module replays a trace's loads and stores once, in trace
order, and labels cache lines:

* a PC is *strided* when it has enough dynamic instances and a dominant
  repeated delta; lines it touches are LHF;
* a 16-line region is *dense* when more than 6 of its lines are touched
  within a bounded temporal window (a region revisited slowly over the
  whole run is not spatial locality any real region monitor could
  exploit); lines in dense regions that are not already LHF are MHF;
* every other line is HHF.

Every prefetch is then labeled with the category of its target line.
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict

from repro.isa.instructions import OpClass
from repro.isa.trace import CompiledTrace, Trace

REGION_LINES = 16
DENSE_THRESHOLD = 6
MIN_INSTANCES = 8
STRIDED_FRACTION = 0.75
DENSITY_WINDOW = 512
"""Accesses after which an idle region's generation ends."""


class Category(enum.Enum):
    LHF = "LHF"
    MHF = "MHF"
    HHF = "HHF"


def _memory_rows(trace: Trace | CompiledTrace):
    """``(pc, addr)`` of every load and store of ``trace``, in trace
    order.  A compiled trace answers from its columns, so no record
    view is built; an object trace from its records."""
    if isinstance(trace, CompiledTrace):
        import numpy as np

        pc, opc, addr = trace.array_columns()[:3]
        rows = np.flatnonzero((opc == int(OpClass.LOAD))
                              | (opc == int(OpClass.STORE)))
        return zip(pc[rows].tolist(), addr[rows].tolist())
    return ((record.pc, record.addr) for record in trace.records
            if record.is_mem)


class OfflineClassifier:
    """Line-address -> category map built from one trace replay."""

    def __init__(self, trace: Trace,
                 min_instances: int = MIN_INSTANCES,
                 strided_fraction: float = STRIDED_FRACTION,
                 dense_threshold: int = DENSE_THRESHOLD,
                 density_window: int = DENSITY_WINDOW) -> None:
        self.min_instances = min_instances
        self.strided_fraction = strided_fraction
        self.dense_threshold = dense_threshold
        self.density_window = density_window
        self._lhf_lines: set[int] = set()
        self._mhf_lines: set[int] = set()
        self.strided_pcs: set[int] = set()
        self._build(trace)

    # ------------------------------------------------------------------
    def _build(self, trace: Trace) -> None:
        last_addr: dict[int, int] = {}
        delta_counts: dict[int, Counter] = defaultdict(Counter)
        instances: Counter = Counter()
        lines_by_pc: dict[int, set[int]] = defaultdict(set)
        # Windowed per-region generations: (current line set, last access
        # index); a region idle longer than the window starts over.
        generations: dict[int, tuple[set[int], int]] = {}
        dense_regions: set[int] = set()
        access_index = 0

        for pc, addr in _memory_rows(trace):
            line = addr >> 6
            instances[pc] += 1
            lines_by_pc[pc].add(line)
            access_index += 1
            region = line // REGION_LINES
            if region not in dense_regions:
                generation = generations.get(region)
                if (
                    generation is None
                    or access_index - generation[1] > self.density_window
                ):
                    generation = (set(), access_index)
                lines, _ = generation
                lines.add(line)
                if len(lines) > self.dense_threshold:
                    dense_regions.add(region)
                    generations.pop(region, None)
                else:
                    generations[region] = (lines, access_index)
            previous = last_addr.get(pc)
            if previous is not None:
                delta = addr - previous
                if delta != 0:
                    delta_counts[pc][delta] += 1
            last_addr[pc] = addr

        # Strided PCs -> LHF lines.
        for pc, count in instances.items():
            if count < self.min_instances:
                continue
            deltas = delta_counts.get(pc)
            if not deltas:
                continue
            total = sum(deltas.values())
            dominant = deltas.most_common(1)[0][1]
            if total and dominant / total >= self.strided_fraction:
                self.strided_pcs.add(pc)
                self._lhf_lines.update(lines_by_pc[pc])

        # Dense regions -> MHF lines (minus LHF).
        for region in dense_regions:
            base = region * REGION_LINES
            for line in range(base, base + REGION_LINES):
                if line not in self._lhf_lines:
                    self._mhf_lines.add(line)

    # ------------------------------------------------------------------
    def category(self, line: int) -> Category:
        """Category of one cache-line address."""
        if line in self._lhf_lines:
            return Category.LHF
        if line in self._mhf_lines:
            return Category.MHF
        return Category.HHF

    def category_counts(self, lines) -> dict[Category, int]:
        """Histogram of categories over an iterable of line addresses."""
        counts = {c: 0 for c in Category}
        for line in lines:
            counts[self.category(line)] += 1
        return counts

    @property
    def lhf_lines(self) -> frozenset[int]:
        return frozenset(self._lhf_lines)

    @property
    def mhf_lines(self) -> frozenset[int]:
        return frozenset(self._mhf_lines)
