"""Stress suite: targeted micro-stressors, one engine mechanism each.

The SPEC/CRONO/STARBENCH/NPB suites are *representative* — they mix
patterns the way real programs do, which is exactly why they make poor
bug hunters: a divergence in one mechanism hides behind the noise of
all the others.  This suite is the opposite (the UStress approach):
each workload is built to pin **one** mechanism of the replay engine,
so a bit-identity violation between kernel tiers points at a specific
subsystem instead of "somewhere in the hierarchy".

==================  =====================================================
workload            mechanism pinned
==================  =====================================================
branch_storm        static-BP mispredict storm: data-dependent branches
                    whose outcomes the backward-taken/forward-not-taken
                    predictor gets wrong half the time — pins the
                    branch-penalty arithmetic and the segmented tier's
                    mispredict islands (``_SEG_BP_MISS``).
store_chain         store-buffer pressure: a store-dominated sweep over
                    a working set larger than L2 — every miss allocates
                    a dirty line, so evictions cascade writebacks
                    L1->L2->L3->DRAM; pins writeback-cascade ordering
                    and the DRAM write-queue bookkeeping.
page_stride         page-crossing strides: row-sized (2 KB) hops, each
                    a cold miss to one DRAM bank, whose open row
                    changes every 32 hops (2,421 row hits, 1 empty
                    and 78 conflicts in 2,500 reads) — pins the
                    row-buffer state machine (hit/empty/conflict
                    classes), the address split and bank-ready timing.
chase_ladder        pointer-chase depth ladder: scattered chains of
                    exponentially growing depth — pins the dependent-
                    load serialization path (one outstanding miss at a
                    time, per-PC miss-latency accounting).
shadow_mix          shadow-tag pollution mix: a hot block interleaved
                    with a stride-2 sweep whose prefetch fills, not its
                    demand traffic, evict the hot lines — the shadow
                    tags still hold them, so the re-touch is a
                    pollution miss; pins ``ShadowTagStore`` recency,
                    pollution-miss attribution, and the tracker's
                    ``on_pollution`` victim lists.
mshr_burst          MSHR saturation bursts: fully independent misses
                    issued back-to-back, more than the 32 MSHRs can
                    hold, then a quiet ALU phase — pins the
                    ``_MshrFile`` acquire/stall algebra at both L1 and
                    L2.
hook_storm          segment-event density: about 71% of instructions
                    are memory ops or mispredicted branches, the
                    densest of any registered workload — pins the
                    segmented tier's island-dense replay.
oddgeom             non-power-of-two geometry walks: 192-byte strides
                    over 1.5 KB regions aligned to odd multiples — set
                    indices and DRAM rows advance in non-pow2 steps,
                    pinning the shift/mask vs modulo address math.
==================  =====================================================

Sizing: stressors run ~4-14k dynamic instructions (vs the 160k default
simpoint) — long enough to leave the warm-up regime of the mechanism
they pin, short enough that the fuzz harness can sweep the whole suite
times every registered prefetcher on both replay paths (segmented and
generic, for single-core cells and mix cores alike) in seconds.
"""

from __future__ import annotations

import random

from repro.isa.program import Assembler, Program
from repro.workloads import builders
from repro.workloads.builders import Allocator
from repro.workloads.registry import Workload, register


def _program(name: str, emit) -> Program:
    asm = Assembler(name=f"stress.{name}")
    alloc = Allocator()
    emit(asm, alloc)
    asm.halt()
    return asm.assemble()


def _stress(name: str, description: str, emit, simpoint: int) -> None:
    register(
        Workload(
            name=f"stress.{name}",
            suite="stress",
            build=lambda: _program(name, emit),
            simpoint=simpoint,
            description=description,
        )
    )


# ---------------------------------------------------------------------------
# branch_storm — static-BP mispredict storm
# ---------------------------------------------------------------------------
def branch_storm(asm: Assembler, alloc: Allocator, *, decisions: int = 3000,
                 taken_rate: float = 0.5, seed: int = 101) -> int:
    """Data-dependent forward branches with ``taken_rate`` of them taken.

    The static predictor assumes forward-not-taken, so every taken
    decision is a mispredict: at the default rate half the branches pay
    the 15-cycle penalty.  The decision bits are loaded from memory
    (sequential, so the *memory* side is trivially prefetchable — the
    storm isolates the branch machinery).
    """
    rng = random.Random(seed)
    bits_base = alloc.alloc(decisions * 8)
    asm.data(bits_base, [int(rng.random() < taken_rate)
                         for _ in range(decisions)])
    asm.movi("r1", bits_base)
    asm.movi("r2", bits_base + decisions * 8)
    loop = asm.label()
    asm.load("r4", "r1", 0)
    skip = asm.future_label()
    asm.beq("r4", "r0", skip)               # forward: taken when bit == 0
    asm.add("r15", "r15", "r4")             # the "taken" work
    asm.place(skip)
    asm.addi("r1", "r1", 8)
    asm.blt("r1", "r2", loop)
    return bits_base


# ---------------------------------------------------------------------------
# store_chain — writeback-cascade pressure
# ---------------------------------------------------------------------------
def store_chain(asm: Assembler, alloc: Allocator, *, lines: int = 1200,
                passes: int = 2) -> int:
    """Dirty every line of a working set larger than L2, repeatedly.

    Every pass stores to each 64-byte line once; with the set bigger
    than L2 (32 KB scaled) each pass's misses evict the previous pass's
    dirty lines, cascading writebacks down every level and into the
    DRAM write queues.
    """
    base = alloc.alloc(lines * 64)
    asm.movi("r10", 0)
    asm.movi("r11", passes)
    outer = asm.label()
    asm.movi("r1", base)
    asm.movi("r2", base + lines * 64)
    loop = asm.label()
    asm.load("r14", "r1", 0)                # read-modify-write: load,
    asm.add("r14", "r14", "r10")            # bump,
    asm.store("r14", "r1", 0)               # store back (dirties line)
    asm.addi("r1", "r1", 64)
    asm.blt("r1", "r2", loop)
    asm.addi("r10", "r10", 1)
    asm.blt("r10", "r11", outer)
    return base


# ---------------------------------------------------------------------------
# page_stride — DRAM row-boundary crossing sweep
# ---------------------------------------------------------------------------
def page_stride(asm: Assembler, alloc: Allocator, *, touches: int = 2500,
                row_bytes: int = 2048) -> int:
    """Hop one DRAM row's worth of bytes (2 KB = 32 lines) per access.

    Every hop is a cold miss at every level.  ``DramConfig``'s address
    split interleaves lines over the channels and then the banks, so a
    32-line hop keeps both and advances the row every 32 hops: the
    default sweep reads 2,421 row hits, 1 empty row and 78 conflicts.
    The stride also crosses an L1 set-wrap every access (2 KB = exactly
    the scaled L1's 32 sets x 64 B), so the sweep doubles as a
    set-aliasing test.
    """
    base = alloc.alloc(touches * row_bytes, align=row_bytes)
    asm.movi("r1", base)
    asm.movi("r2", base + touches * row_bytes)
    asm.movi("r3", row_bytes)
    loop = asm.label()
    asm.load("r14", "r1", 0)
    asm.add("r15", "r15", "r14")
    asm.add("r1", "r1", "r3")
    asm.blt("r1", "r2", loop)
    return base


# ---------------------------------------------------------------------------
# chase_ladder — dependent-load depth ladder
# ---------------------------------------------------------------------------
def chase_ladder(asm: Assembler, alloc: Allocator, *, rungs: int = 6,
                 base_depth: int = 32, seed: int = 103) -> None:
    """Scattered pointer chains of depth 32, 64, ... doubling per rung.

    Every load depends on the previous one, so misses cannot overlap:
    the ladder exposes any divergence in single-pending MSHR timing and
    per-PC miss-latency attribution, at several chain lengths so both
    the cold start and the steady state of each depth are covered.
    """
    rng = random.Random(seed)
    for rung in range(rungs):
        depth = base_depth << rung
        builders.linked_list(asm, alloc, nodes=depth, node_bytes=64,
                             layout="scattered", payload_loads=1,
                             seed=rng.randrange(1 << 30))


# ---------------------------------------------------------------------------
# shadow_mix — shadow-tag pollution interleave
# ---------------------------------------------------------------------------
def shadow_mix(asm: Assembler, alloc: Allocator, *, hot_lines: int = 32,
               sweep_lines: int = 512, rounds: int = 6) -> int:
    """Alternate a reused hot block with a polluting strided sweep.

    The hot block fits in the (scaled, 8 KB, 32-set) L1, one line per
    set.  The sweep demands every other line, so its demand traffic
    lands only in the even sets: the hot lines in the odd sets stay in
    the shadow tags, which see demand traffic alone.  A next-line or
    stream prefetcher fills the skipped odd lines, and those prefetch
    fills evict the odd-set hot lines from the real L1 (and, under
    deeper prefetchers, from the L2).  The next hot pass then misses
    where the shadow still hits: a pollution miss, shared among the
    set's prefetched lines.  Any tier that replays shadow recency or
    the victim list differently diverges here first.
    """
    hot = alloc.alloc(hot_lines * 64)
    sweep = alloc.alloc(sweep_lines * 64)
    asm.movi("r10", 0)
    asm.movi("r11", rounds)
    outer = asm.label()
    # hot pass
    asm.movi("r1", hot)
    asm.movi("r2", hot + hot_lines * 64)
    hot_loop = asm.label()
    asm.load("r14", "r1", 0)
    asm.add("r15", "r15", "r14")
    asm.addi("r1", "r1", 64)
    asm.blt("r1", "r2", hot_loop)
    # polluting sweep
    asm.movi("r1", sweep)
    asm.movi("r2", sweep + sweep_lines * 64)
    sweep_loop = asm.label()
    asm.load("r14", "r1", 0)
    asm.add("r15", "r15", "r14")
    asm.addi("r1", "r1", 128)               # every other line
    asm.blt("r1", "r2", sweep_loop)
    asm.addi("r10", "r10", 1)
    asm.blt("r10", "r11", outer)
    return hot


# ---------------------------------------------------------------------------
# mshr_burst — MSHR saturation bursts
# ---------------------------------------------------------------------------
def mshr_burst(asm: Assembler, alloc: Allocator, *, bursts: int = 40,
               burst_lines: int = 48, quiet_ops: int = 40) -> int:
    """Issue more independent misses back-to-back than MSHRs exist.

    Each burst touches ``burst_lines`` distinct lines (48 > the 32
    MSHRs) with no intervening computation, saturating the miss file so
    late acquires stall on the earliest pending fill; a quiet ALU phase
    then drains everything before the next burst.  Bursts advance
    through memory so every burst misses cold.
    """
    stride = 64
    base = alloc.alloc(bursts * burst_lines * stride)
    asm.movi("r1", base)
    asm.movi("r5", bursts)
    asm.movi("r6", 0)
    outer = asm.label()
    for i in range(burst_lines):            # unrolled: no branches between
        asm.load("r14", "r1", i * stride)   # the misses of one burst
        asm.add("r15", "r15", "r14")
    for _ in range(quiet_ops):
        asm.add("r15", "r15", "r15")
    asm.addi("r1", "r1", burst_lines * stride)
    asm.addi("r6", "r6", 1)
    asm.blt("r6", "r5", outer)
    return base


# ---------------------------------------------------------------------------
# hook_storm — segment-event-dense replay
# ---------------------------------------------------------------------------
def hook_storm(asm: Assembler, alloc: Allocator, *, lines: int = 896,
               seed: int = 107) -> int:
    """Nearly every instruction a segment event.

    A scattered line list is read with back-to-back dependent loads, a
    taken (mispredicted) forward branch, and a store per element — the
    body unrolled 8-wide so loop control almost vanishes and about 71%
    of retired instructions are segment events, the densest of any
    registered workload, so the segmented tier replays it almost all
    as islands.
    """
    rng = random.Random(seed)
    targets = [alloc.alloc(64) for _ in range(lines)]
    rng.shuffle(targets)
    index = alloc.alloc(lines * 8)
    asm.data(index, targets)
    for t in targets:
        asm.data(t, 1)
    asm.movi("r1", index)
    asm.movi("r2", index + lines * 8)
    loop = asm.label()
    for i in range(8):                      # unrolled: 4 events per element
        asm.load("r4", "r1", 8 * i)         # event: pointer load
        asm.load("r14", "r4", 0)            # event: dependent gather
        skip = asm.future_label()
        asm.beq("r14", "r0", skip)          # forward taken -> BP-miss event
        asm.store("r14", "r4", 0)           # event: store on the taken leg
        asm.place(skip)
    asm.addi("r1", "r1", 64)
    asm.blt("r1", "r2", loop)
    return index


# ---------------------------------------------------------------------------
# oddgeom — non-power-of-two geometry walk
# ---------------------------------------------------------------------------
def oddgeom(asm: Assembler, alloc: Allocator, *, regions: int = 144,
            region_bytes: int = 1536, step: int = 192,
            seed: int = 109) -> int:
    """Sweep 1.5 KB regions in 192-byte steps from 1.5 KB-aligned bases.

    Every quantity is a non-power-of-two multiple of the line size, so
    set indices, DRAM banks, and rows all advance in steps that only
    modulo arithmetic gets right — a pow2 shift/mask shortcut applied
    anywhere in a replay tier diverges immediately.
    """
    return builders.region_sweep(asm, alloc, regions=regions,
                                 region_bytes=region_bytes, step=step,
                                 seed=seed)


_stress("branch_storm",
        "static-BP mispredict storm (pins branch penalty + BP islands)",
        lambda asm, alloc: branch_storm(asm, alloc), simpoint=24_000)
_stress("store_chain",
        "store-dominated working set > L2 (pins writeback cascades)",
        lambda asm, alloc: store_chain(asm, alloc), simpoint=16_000)
_stress("page_stride",
        "DRAM row-sized hops (pins row-buffer hit/empty/conflict)",
        lambda asm, alloc: page_stride(asm, alloc), simpoint=12_000)
_stress("chase_ladder",
        "pointer-chase depth ladder (pins dependent-miss serialization)",
        lambda asm, alloc: chase_ladder(asm, alloc), simpoint=16_000)
_stress("shadow_mix",
        "hot block vs prefetch-polluting sweep (pins shadow tags + "
        "pollution)",
        lambda asm, alloc: shadow_mix(asm, alloc), simpoint=8_000)
_stress("mshr_burst",
        "48-wide independent miss bursts (pins MSHR acquire/stall)",
        lambda asm, alloc: mshr_burst(asm, alloc), simpoint=16_000)
_stress("hook_storm",
        "event-dense replay (pins back-to-back segmented islands)",
        lambda asm, alloc: hook_storm(asm, alloc), simpoint=16_000)
_stress("oddgeom",
        "non-pow2 strides/regions (pins modulo vs shift/mask address math)",
        lambda asm, alloc: oddgeom(asm, alloc), simpoint=20_000)
