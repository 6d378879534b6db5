"""Adversarial trace fuzzer: seeded programs for the identity harness.

The engine has two replay paths, the segmented plan/replay tier and
the generic step loop, for single-core cells and mix cores alike;
:mod:`repro.identity` checks their equivalence as a *property*: any
trace this module can generate, replayed under any registered
prefetcher, must produce bit-identical figures on both.

The generator is **deterministic per seed**: ``fuzz_workload(seed)``
always builds the same program, so its trace compiles through the
normal trace cache (keyed by name + builder-code digest) like any suite
workload, and a violation report names a seed anyone can replay.
Fragments are drawn from the adversarial access-pattern catalog
(pointer-chase ladders, non-pow2 strides, region-boundary sweeps,
dense/sparse mixes, mispredict storms, MSHR bursts) plus — every
``DEGENERATE_EVERY``-th seed — the degenerate shapes (empty program,
single load, single store, ALU-only) that only ever break edge-case
handling, never throughput.

Only the generator lives here: the trace cache digests every
``repro/workloads`` module, and the harness never builds a trace.
"""

from __future__ import annotations

import random

from repro.isa.program import Assembler, Program
from repro.workloads import builders
from repro.workloads.builders import Allocator
from repro.workloads.registry import Workload, get_or_register

FUZZ_SUITE = "fuzz"

DEGENERATE_EVERY = 13
"""Every 13th seed builds a degenerate program (empty / single memory
op / ALU-only) instead of a fragment mix — the shapes that exercise
empty-column plan building and kernel-selection fallbacks."""

SIMPOINTS = (1_500, 3_000, 6_000, 12_000)
"""Per-seed dynamic-instruction budgets.  Pathology does not need
length: a 3k-instruction trace replays in milliseconds per tier, which
is what lets ``--seeds 200`` sweep every registered prefetcher."""

ADVERSARIAL_STRIDES = (8, 24, 56, 64, 72, 136, 192, 320, 960, 1024,
                       2048, 2112, 4096)
"""Line-straddling, set-aliasing, row-crossing, and non-pow2 strides —
the shapes the prefetcher-taxonomy literature singles out as the ones
each prefetcher family must survive."""


# ---------------------------------------------------------------------------
# Seeded program generator
# ---------------------------------------------------------------------------
def _frag_stride(asm, alloc, rng) -> None:
    builders.strided_loop(
        asm, alloc,
        elements=rng.randrange(100, 1200),
        stride=rng.choice(ADVERSARIAL_STRIDES),
        work=rng.randrange(0, 4),
        store_every=rng.choice((0, 0, 1, 3)),
        passes=rng.randrange(1, 3),
    )


def _frag_streams(asm, alloc, rng) -> None:
    builders.multi_stream(
        asm, alloc,
        elements=rng.randrange(100, 900),
        streams=rng.randrange(2, 6),
        stride=rng.choice((8, 16, 24, 56, 64)),
        work=rng.randrange(0, 3),
    )


def _frag_chase(asm, alloc, rng) -> None:
    builders.linked_list(
        asm, alloc,
        nodes=rng.randrange(50, 1200),
        node_bytes=rng.choice((16, 40, 64, 96, 136, 256)),
        layout=rng.choice(("sequential", "scattered", "clustered")),
        payload_loads=rng.randrange(1, 3),
        work=rng.randrange(0, 3),
        seed=rng.randrange(1 << 30),
    )


def _frag_aop(asm, alloc, rng) -> None:
    builders.array_of_pointers(
        asm, alloc,
        count=rng.randrange(80, 800),
        object_bytes=rng.choice((48, 64, 136, 256, 384)),
        fields=rng.randrange(1, 3),
        work=rng.randrange(0, 3),
        seed=rng.randrange(1 << 30),
    )


def _frag_region(asm, alloc, rng) -> None:
    builders.region_sweep(
        asm, alloc,
        regions=rng.randrange(8, 64),
        region_bytes=rng.choice((256, 768, 1024, 1536, 2048, 3072)),
        step=rng.choice((64, 128, 192, 320)),
        work=rng.randrange(0, 2),
        seed=rng.randrange(1 << 30),
    )


def _frag_gather(asm, alloc, rng) -> None:
    builders.random_gather(
        asm, alloc,
        lookups=rng.randrange(100, 900),
        table_bytes=rng.choice((16, 64, 128, 512)) * 1024,
        seed=rng.randrange(1 << 30),
    )


def _frag_index(asm, alloc, rng) -> None:
    builders.index_gather(
        asm, alloc,
        elements=rng.randrange(100, 900),
        table_elements=rng.randrange(256, 8192),
        locality_window=rng.choice((0, 0, 8, 64)),
        seed=rng.randrange(1 << 30),
    )


def _frag_callsites(asm, alloc, rng) -> None:
    builders.call_site_streams(
        asm, alloc,
        elements=rng.randrange(100, 600),
        strides=(rng.choice((8, 16, 24)), rng.choice((24, 56, 72))),
        work=rng.randrange(0, 2),
    )


def _frag_branch_storm(asm, alloc, rng) -> None:
    from repro.workloads import stress

    stress.branch_storm(asm, alloc,
                        decisions=rng.randrange(200, 1500),
                        taken_rate=rng.uniform(0.1, 0.9),
                        seed=rng.randrange(1 << 30))


def _frag_mshr_burst(asm, alloc, rng) -> None:
    from repro.workloads import stress

    stress.mshr_burst(asm, alloc,
                      bursts=rng.randrange(4, 16),
                      burst_lines=rng.choice((8, 33, 48)),
                      quiet_ops=rng.randrange(0, 60))


def _frag_hook_storm(asm, alloc, rng) -> None:
    from repro.workloads import stress

    stress.hook_storm(asm, alloc, lines=8 * rng.randrange(4, 60),
                      seed=rng.randrange(1 << 30))


def _frag_alu(asm, alloc, rng) -> None:
    # A long event-free stretch (and a vectorized-dispatch workout).
    asm.movi("r9", rng.randrange(1, 100))
    for _ in range(rng.randrange(20, 200)):
        asm.add("r15", "r15", "r9")


_FRAGMENTS = (
    _frag_stride, _frag_streams, _frag_chase, _frag_aop, _frag_region,
    _frag_gather, _frag_index, _frag_callsites, _frag_branch_storm,
    _frag_mshr_burst, _frag_hook_storm, _frag_alu,
)


def _degenerate(asm: Assembler, rng: random.Random) -> str:
    shape = rng.choice(("empty", "load", "store", "alu"))
    if shape == "load":
        asm.movi("r1", 0x40000)
        asm.load("r2", "r1", 0)
    elif shape == "store":
        asm.movi("r1", 0x40000)
        asm.store("r1", "r1", 0)
    elif shape == "alu":
        for _ in range(rng.randrange(1, 30)):
            asm.add("r2", "r2", "r2")
    return shape


def fuzz_name(seed: int) -> str:
    return f"{FUZZ_SUITE}.s{seed:05d}"


def build_fuzz_program(seed: int) -> Program:
    """The deterministic adversarial program for ``seed``."""
    rng = random.Random(0xF02D ^ (seed * 0x9E3779B1))
    asm = Assembler(name=fuzz_name(seed))
    alloc = Allocator()
    if seed and seed % DEGENERATE_EVERY == 0:
        _degenerate(asm, rng)
    else:
        for _ in range(rng.randrange(1, 5)):
            rng.choice(_FRAGMENTS)(asm, alloc, rng)
    asm.halt()
    return asm.assemble()


def fuzz_simpoint(seed: int) -> int:
    rng = random.Random(0x51A9 ^ (seed * 0x9E3779B1))
    return rng.choice(SIMPOINTS)


def fuzz_workload(seed: int) -> Workload:
    """The registered workload for ``seed`` (idempotent per process).

    Registration routes the fuzzed trace through the exact machinery
    every suite workload uses — per-instance memo, on-disk trace cache,
    and (for the fused-unit invariant) worker-side name resolution.
    """
    return get_or_register(
        Workload(
            name=fuzz_name(seed),
            suite=FUZZ_SUITE,
            build=lambda: build_fuzz_program(seed),
            simpoint=fuzz_simpoint(seed),
            description=f"seeded adversarial trace (seed {seed})",
        )
    )
