"""Segmented replay tier: plan once per trace, replay every core.

The one specialized replay kernel.  It runs every single-core cell and
every core of a multicore mix that
:func:`~repro.engine.kernel.kernel_flags` accepts (a compiled trace,
static branch prediction, no sampler, no telemetry hub) on a stock
cold hierarchy: the hook-free ``none`` cells and the paper's hooked
``bop``/``tpc`` prefetchers alike.  Every other cell runs the generic
loop, and a mix with any such core runs all its cores on the generic
loop (:mod:`repro.engine.multicore`).  Prefetches perturb the cache
and DRAM state — which accesses hit, which victims leave, and which
DRAM rows open all depend on what the prefetcher did — so the tier
plans only what the trace alone decides and replays the rest live,
splitting the work the way the paper splits prefetching:

* **Plan (pay once per trace x L1 geometry)** — :func:`_build_segment_plan`
  precomputes only what stays a pure function of the trace: the fused
  per-instruction dispatch classes (the feed row set among them) and
  effective operands, cut into *stretches* (runs of rows that end at a
  segment event, at a taken backward branch, or at the trace's end),
  the table of distinct stretches (most frequent first) with the
  trace's sequence of stretch ids, the flat per-event columns
  (pc/mPC/addr/line/value), and the shadow-L1 outcome per demand
  access (shadow tags see only demand traffic, so their whole story is
  trace-determined even under prefetching).
* **Replay (every cell, every mix core)** — a generated kernel
  (:func:`_segment_source`, compiled and memoized per hook shape and
  stretch table) runs ``for sid in plan.stretch_ids`` with one arm per
  distinct stretch, each arm the stretch as straight-line code: the
  rows' operands folded to constants, the 32 register ready-times in
  locals, and the stretch's *scalar island* inline at its event: the
  L1 hit leg, the full demand-miss leg, and the
  entire prefetch path run against a virtualized hierarchy — flat
  ``[fill_time, dirty, prefetched, used, component]`` entries in
  recency-ordered per-set dicts (dict order is exact LRU order), the
  ``_MshrFile``/``Dram`` algebra inline — with zero per-access object
  allocation (one ``AccessEvent`` per replay, refilled at each
  access), dead hook branches absent from the emitted source (a
  hook-free cell's kernel has none at all), and composite hook
  forwarders devirtualized to their component methods: a composite's
  ``on_access`` to its coordinator's ``route``, and every instruction
  feed (:func:`~repro.engine.kernel.core_feeds`) called only on its
  declared rows — the plan marks T2's taken backward branches as the
  ``_SEG_FED`` class — and only while its gate is armed.
  Hooks (``observe_instruction``, ``observe_access``, ``on_access``,
  ``on_fill``, ``on_prefetch_hit``) are called at exactly the positions
  and with exactly the :class:`~repro.core.base.AccessEvent` payloads
  of the generic loop, so prefetcher state is handed off bit-exactly
  at every row.  Every kernel likewise appends the
  credit-accounting entries (``on_useful``, ``on_pollution``,
  ``on_prefetch_issued``) to ``Hierarchy.credit_log`` where
  ``Hierarchy`` does, with each ``on_pollution``'s victims sorted by
  line, so the log equals the generic loop's.

Every kernel is a generator (:func:`segmented_bursts`): it yields
every ``burst_rows`` rows, at the ROB-ring check each row makes
anyway, and writes ``core._fetch_cycle`` back for the multicore
scheduler, which steps a mix core ``multicore.BURST`` rows at a time;
the next resume continues inside the stretch where it stopped.  A
single-core cell (:func:`maybe_run_segmented`) asks for one burst as
long as its trace, so the same kernel runs it to the end in one
resume without ever yielding.  The private L1/L2, shadow tags
and MSHRs live in the kernel's locals; the virtual L3 sets and the
DRAM bank, bus and queue lists live in a :class:`SharedLevels` that
a single-core cell builds for itself and a mix builds once for all
its cores.  Each kernel adds its L3 and DRAM counts into the shared
stats objects when its trace ends.

Bit-identity is the contract: the replay reproduces every structural
decision and every timing of :class:`~repro.memory.cache.Cache`,
:class:`~repro.memory.shadow.ShadowTagStore`, the MSHR files, and
:class:`~repro.memory.dram.Dram`.  ``tests/test_kernels.py``, the fuzz
identity harness, and the bench's in-run kernels section pin it
against ``REPRO_KERNEL=generic``, which disables all specialization.

The replayed DRAM is the paper's controller under both drop policies
(``Dram._admit``: RANDOM sheds every prefetch that meets a full
queue; LOW_PRIORITY_FIRST sheds an incoming C1 prefetch, else evicts
the first queued one) and the ``Dram._map`` address split, ``%`` and
``//`` for any geometry.  Eligibility is deliberately conservative:
warm core or hierarchy state, subclassed hierarchy/cache/shadow/MSHR/
DRAM components, or DRAM telemetry turn the cell down silently.  The
cell then runs the generic loop, which calls the real ``Hierarchy``
and ``Dram`` (the variant name on ``SimulationResult.kernel`` records
which path actually ran).  Segment-event density never turns a cell
down: an all-event trace is all islands and still replays here.  A
plan is memoized on the ``CompiledTrace._plans`` of the trace it was
built from, and nowhere else; the process metrics registry counts
``kernel.plan_builds``/``kernel.plan_cache_hits``, kernel
exec-compiles (``kernel.compiled.<variant>``) and what they cost
(``kernel.generated_lines``, ``kernel.compile_us``), and a sweep's
``repro metrics`` shows what its cells added.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

from repro.isa.trace import (
    BACKWARD_TAKEN,
    DISP_ALU,
    DISP_BR_COND,
    DISP_BR_UNCOND,
    DISP_LOAD,
    DISP_OTHER,
    DISP_STORE,
    CompiledTrace,
)
from repro.engine.kernel import core_feeds, feed_shape, variant_name
from repro.isa.instructions import NUM_REGISTERS
from repro.memory.dram import LOW_PRIORITY_COMPONENTS, DropPolicy
from repro.obs.metrics import PROCESS

_FAR = 1 << 62
"""Empty-pending sentinel (mirrors ``_MshrFile._NO_PENDING`` and
``Dram._NO_PENDING``)."""
_EVENT_ARGS = ("cycle", "pc", "mpc", "addr", "line", "is_load", "hit",
               "primary_miss", "latency", "value", "dst",
               "served_by_prefetch", "serving_component")
"""``AccessEvent``'s constructor arguments, in order: the fields an
island refills on the replay's one event."""


class _LowPriority(int):
    """A virtual DRAM queue entry (a completion cycle) of a prefetch
    from a ``LOW_PRIORITY_COMPONENTS`` component, queued under
    LOW_PRIORITY_FIRST: the one fact ``Dram._admit`` reads beyond the
    completion when it picks a queued victim."""

    __slots__ = ()


class SharedLevels:
    """The virtual L3 and DRAM that the kernels of one run replay
    against: the L3's recency-ordered set dicts, and the DRAM's
    per-bank ready cycles and open rows, per-channel bus-free cycles,
    queued completions and cached queue minima.  A mix builds one for
    all its cores (they share the L3 and the controller); a
    single-core cell builds its own.  The kernels mutate every list in
    place, so each core sees the others' accesses in the order the
    multicore scheduler interleaves them."""

    __slots__ = ("l3_sets", "bank_ready", "bank_row", "bus_free",
                 "queues", "q_min")

    def __init__(self, l3, dram) -> None:
        cfg = dram.config
        banks = cfg.channels * cfg.ranks_per_channel * cfg.banks_per_rank
        self.l3_sets = [dict() for _ in range(l3.num_sets)]
        self.bank_ready = [0] * banks
        self.bank_row = [None] * banks
        self.bus_free = [0] * cfg.channels
        self.queues = [[] for _ in range(cfg.channels)]
        self.q_min = [_FAR] * cfg.channels


def _get_plan(trace: CompiledTrace, key: tuple):
    """Segment-plan memoizer.

    Plans live on ``CompiledTrace._plans`` keyed by structural geometry,
    so every cell of a sweep replaying the same (warm, process-shared)
    trace under the same geometry reuses one plan.  ``kernel.plan_builds``
    / ``kernel.plan_cache_hits`` in the process metrics registry count
    the split (a sweep's ``repro metrics`` shows its share).
    """
    plan = trace._plans.get(key)
    if plan is None:
        PROCESS.count("kernel.plan_builds")
        plan = trace._plans[key] = _build_segment_plan(trace, key)
    else:
        PROCESS.count("kernel.plan_cache_hits")
    return plan


def _stock_cold_hierarchy(core):
    """The stock, cold :class:`~repro.memory.hierarchy.Hierarchy` behind
    ``core`` — or ``None`` when anything deviates and the tier must
    turn the cell down: warm core state, subclassed hierarchy / cache /
    shadow / MSHR / DRAM components, DRAM telemetry attached, or
    resident lines or prior traffic.  The hierarchy leg of the tier's
    eligibility, for a single-core cell and every core of a mix."""
    if (core._index or core._fetch_cycle or core._fetch_slot
            or core._last_commit_time or core._commits_at_time):
        return None
    from repro.memory.cache import Cache
    from repro.memory.dram import Dram
    from repro.memory.hierarchy import Hierarchy, _MshrFile
    from repro.memory.shadow import ShadowTagStore

    hierarchy = core.hierarchy
    if type(hierarchy) is not Hierarchy:
        return None
    l1 = hierarchy.l1d
    if (type(l1) is not Cache or type(hierarchy.l2) is not Cache
            or type(hierarchy.l3) is not Cache
            or type(hierarchy.shadow_l1) is not ShadowTagStore
            or type(hierarchy.shadow_l2) is not ShadowTagStore
            or type(hierarchy._l1_mshrs) is not _MshrFile
            or type(hierarchy._l2_mshrs) is not _MshrFile):
        return None
    dram = hierarchy.dram
    if type(dram) is not Dram or dram.telemetry is not None:
        return None
    dram_stats = dram.stats
    if (l1._use_counter or hierarchy.l2._use_counter
            or hierarchy.l3._use_counter
            or dram_stats.reads or dram_stats.writes
            or hierarchy.prefetch_stats.issued
            or hierarchy._l1_mshrs._pending
            or hierarchy._l2_mshrs._pending
            or hierarchy.pollution_misses_l1
            or hierarchy.pollution_misses_l2):
        return None
    return hierarchy


# ----------------------------------------------------------------------
# Segment plan and replay.
# ----------------------------------------------------------------------

# Per-instruction dispatch classes.  Hit/miss is decided live
# (prefetches change it), so loads and stores are single classes.  A
# taken backward branch (the feed row set T2 declares) is register-only
# under static BTFNT; its own class lets a kernel feed exactly those
# rows, and every other kernel retires it as _SEG_SIMPLE.
_SEG_SIMPLE = 0
_SEG_LOAD = 1
_SEG_STORE = 2
_SEG_BP_MISS = 3
_SEG_FED = 4


class SegmentPlan:
    """Precomputed replay schedule for one (trace, L1 geometry) pair.

    Only trace-pure facts live here — everything the prefetcher can
    perturb stays live in the generated segmented kernel.  A *stretch*
    is a run of rows that ends at a segment event (a load, a store or a
    mispredicted branch), at a taken backward branch, or at the end of
    the trace; each row is its ``(cls, src1, src2, dst, lat)`` tuple.
    ``table`` holds the trace's distinct stretches, most frequent first
    (the kernel compiles each into straight-line code), and
    ``stretch_ids`` the trace's sequence of stretch ids.  ``ev_rows``
    holds one ``(pc, addr, line, mpc, value, sh1)`` tuple per memory
    access in trace order, consumed by a running iterator (loads and
    stores are exactly the memory-typed segment events, so no index
    column is needed).  ``sh1`` is the shadow-L1 outcome per access:
    shadow tags see only demand traffic, so their whole hit/miss story
    is trace-determined even under prefetching.
    """

    __slots__ = (
        "table", "stretch_ids", "ev_rows", "n",
        "n_mem", "loads", "stores", "branches", "mispredicts",
    )


def segment_plan_key(core) -> tuple:
    """Structural geometry the segment plan depends on: only the L1
    shape (for the shadow-L1 walk) and the ALU latency (folded into the
    per-instruction latency column).  Everything else — L2/L3/DRAM
    geometry, MSHR counts, latencies — is replayed live."""
    l1 = core.hierarchy.l1d
    return (l1.num_sets, l1.ways, core._alu_latency)


def _build_segment_plan(trace: CompiledTrace, key: tuple) -> SegmentPlan:
    import numpy as np

    l1_num_sets, l1_ways, alu_latency = key

    (pc_a, _opc, addr_a, value_a, dst_a, src1_a, src2_a,
     _taken, _target, _ras) = trace.array_columns()
    line_a, mpc_a, disp_a, bp_a = trace.derived_arrays()
    n = len(disp_a)

    # Effective operands per dispatch arm, exactly as the generic loop
    # reads them: ALU/store/cond-branch check src1+src2, loads only
    # src1, unconditional branches only src2, OTHER nothing; only ALU
    # (guarded) and loads write a destination.
    b_src1 = np.where(disp_a == DISP_BR_UNCOND, src2_a, src1_a)
    b_src1 = np.where(disp_a == DISP_OTHER, -1, b_src1)
    no_src2 = ((disp_a == DISP_LOAD) | (disp_a == DISP_BR_UNCOND)
               | (disp_a == DISP_OTHER))
    b_src2 = np.where(no_src2, -1, src2_a)
    b_dst = np.where((disp_a == DISP_ALU) | (disp_a == DISP_LOAD),
                     dst_a, -1)
    b_lat = np.where(disp_a == DISP_ALU, alu_latency, 1)

    cls = np.zeros(n, dtype=np.int64)
    cls[(disp_a == DISP_BR_COND) & (bp_a != 0)] = _SEG_BP_MISS
    cls[disp_a == DISP_LOAD] = _SEG_LOAD
    cls[disp_a == DISP_STORE] = _SEG_STORE
    fed = trace.feed_records(BACKWARD_TAKEN)[0]
    if fed:
        assert not cls[fed].any(), "a taken backward branch is an event"
        cls[fed] = _SEG_FED

    events = trace.segment_events()
    mem_pos = events[disp_a[events] <= DISP_STORE]
    ev_lines = line_a[mem_pos].tolist()

    # Shadow-L1 walk (exact ShadowTagStore.access over every demand
    # access, hit or miss — Hierarchy.demand_access updates the shadow
    # on both legs and only *reads* the outcome on a miss).
    sh_mask = l1_num_sets - 1
    sh_sets: list[dict] = [dict() for _ in range(l1_num_sets)]
    sh1: list[bool] = []
    append = sh1.append
    for line in ev_lines:
        s = sh_sets[line & sh_mask]
        if line in s:
            del s[line]
            append(True)
        else:
            append(False)
            if len(s) >= l1_ways:
                del s[next(iter(s))]
        s[line] = None

    plan = SegmentPlan()
    plan.n = n
    # Rows are numbered by their distinct tuple (a trace holds a few
    # dozen), so a stretch is a tuple of small ints.  Registers shift
    # by one so that "none" (-1) is a valid digit of the row's key.
    columns = (cls, b_src1, b_src2, b_dst, b_lat)
    regs = NUM_REGISTERS + 1
    key = np.ravel_multi_index(
        (cls, b_src1 + 1, b_src2 + 1, b_dst + 1, b_lat),
        (_SEG_FED + 1, regs, regs, regs, max(alu_latency, 1) + 1))
    _, first, inverse = np.unique(key, return_index=True,
                                  return_inverse=True)
    distinct = list(zip(*(column[first].tolist() for column in columns)))
    # A stretch ends after every row that is not _SEG_SIMPLE: each event
    # and each taken backward branch.  The branch cut keeps a loop with
    # no event in its body from becoming one stretch as long as all its
    # iterations, whose straight-line code would grow with the trip
    # count instead of with the program.
    ends = (np.flatnonzero(cls) + 1).tolist()
    if n and (not ends or ends[-1] != n):
        ends.append(n)
    row_ids = inverse.ravel().tolist()
    found: dict[tuple, int] = {}
    intern = found.setdefault
    first_seen = [intern(tuple(row_ids[start:end]), len(found))
                  for start, end in zip([0, *ends], ends)]
    order = np.argsort(-np.bincount(first_seen, minlength=len(found)),
                       kind="stable")
    rank = np.empty(len(found), dtype=np.int64)
    rank[order] = np.arange(len(found))
    stretches = list(found)
    plan.table = tuple(tuple(distinct[r] for r in stretches[sid])
                       for sid in order.tolist())
    plan.stretch_ids = rank[first_seen].tolist()
    # One tuple per access: a single unpack in the replay arms instead
    # of six indexed column reads (.tolist() first, so the tuples hold
    # plain ints that compare/hash at C speed in the set dicts).
    plan.ev_rows = list(zip(
        pc_a[mem_pos].tolist(), addr_a[mem_pos].tolist(), ev_lines,
        mpc_a[mem_pos].tolist(), value_a[mem_pos].tolist(), sh1))
    plan.n_mem = len(ev_lines)
    plan.loads = int(np.count_nonzero(disp_a == DISP_LOAD))
    plan.stores = int(np.count_nonzero(disp_a == DISP_STORE))
    plan.branches = int(np.count_nonzero(
        (disp_a == DISP_BR_COND) | (disp_a == DISP_BR_UNCOND)))
    plan.mispredicts = int(np.count_nonzero(
        (disp_a == DISP_BR_COND) & (bp_a != 0)))
    return plan


def segmented_bursts(core, flags: tuple, shared: SharedLevels,
                     burst_rows: int):
    """``core``'s replay on the segmented tier, as a generator over the
    virtual L3/DRAM ``shared``: each resume retires ``burst_rows`` rows,
    writes ``core._fetch_cycle`` back and yields ``True``, until the
    resume that reaches the end of the trace writes the core's figures
    back and stops.

    ``flags`` are the hook-shape flags
    :func:`~repro.engine.kernel.kernel_flags` returned for ``core``;
    the caller has also checked its hierarchy
    (:func:`_stock_cold_hierarchy`).  A trace of at most ``burst_rows``
    rows finishes in the first resume without yielding.
    """
    instr, oa, ona, of = flags
    variant = variant_name(flags)
    plan = _get_plan(core.trace, segment_plan_key(core))
    PROCESS.count(f"kernel.selected.{variant}")
    core.kernel_variant = variant

    # Resolve the devirtualized composite access hook of the kernel key.
    from repro.core.composite import CompositePrefetcher

    route = None
    if ona:
        hook = core._on_access
        if getattr(hook, "__func__", None) is CompositePrefetcher.on_access:
            route = hook.__self__.coordinator.route
        else:
            route = hook

    feeds = core_feeds(core)
    kernel = _segment_kernel(instr, oa, ona, of, feed_shape(feeds),
                             plan.table)
    return kernel(core, plan, feeds, route, shared, burst_rows)


def maybe_run_segmented(core, flags: tuple):
    """Run the single-core cell ``core`` through the segmented tier in
    one burst, or return ``None`` to let the caller run the generic
    loop (a hierarchy :func:`_stock_cold_hierarchy` turns down)."""
    hierarchy = _stock_cold_hierarchy(core)
    if hierarchy is None:
        return None
    shared = SharedLevels(hierarchy.l3, hierarchy.dram)
    # The whole trace is one burst (at least one row: an empty trace
    # still needs a positive step).
    for _ in segmented_bursts(core, flags, shared,
                              max(core._num_records, 1)):
        pass
    return core.stats


_SEG_KERNELS: dict[tuple, object] = {}


def _segment_kernel(instr: bool, oa: bool, ona: bool, of: bool,
                    shape: tuple, table: tuple):
    """Compile (and memoize) one segmented replay kernel, generated
    with dead hook branches absent, specialized on the instruction-feed
    ``shape`` (:func:`~repro.engine.kernel.feed_shape`), and with every
    stretch of the plan's ``table`` as straight-line code.  Each
    compile counts
    ``kernel.compiled.<variant>``, its source lines
    (``kernel.generated_lines``) and the microseconds spent generating
    and compiling it (``kernel.compile_us``).
    """
    key = (instr, oa, ona, of, shape, table)
    fn = _SEG_KERNELS.get(key)
    if fn is None:
        from repro.core.base import AccessEvent

        started = time.perf_counter()
        variant = variant_name((instr, oa, ona, of))
        source = _segment_source(*key)
        namespace = {"_FAR": _FAR, "AccessEvent": AccessEvent,
                     "_LowPriority": _LowPriority,
                     "LOW_PRIORITY_FIRST": DropPolicy.LOW_PRIORITY_FIRST,
                     "low_components": LOW_PRIORITY_COMPONENTS,
                     "heappush": heappush, "heappop": heappop}
        name = f"<segmented kernel {variant} {shape}>"
        exec(compile(source, name, "exec"), namespace)
        fn = _SEG_KERNELS[key] = namespace["run_segmented"]
        PROCESS.count(f"kernel.compiled.{variant}")
        PROCESS.count("kernel.generated_lines", source.count("\n"))
        PROCESS.count("kernel.compile_us",
                      round((time.perf_counter() - started) * 1e6))
    return fn


def _feed_head(shape: tuple) -> list[str]:
    """Bindings :func:`_feed_lines` reads: ``feed_<k>``, ``gate_<k>``,
    ``fed_next`` for a row-set feed, and ``records`` or ``record``
    (``trace`` and ``feeds`` in scope)."""
    lines = []
    for k, (_, gated) in enumerate(shape):
        lines.append(f"    feed_{k} = feeds[{k}][0]")
        if gated:
            lines.append(f"    gate_{k} = feeds[{k}][2]")
    rows = next((rows for rows, _ in shape if rows), None)
    if rows:
        lines.append(f"    fed_next = iter(trace.feed_records({rows!r})[1])"
                     ".__next__")
    if any(rows is None and not gated for rows, gated in shape):
        lines.append("    records = trace.records")
    elif any(rows is None for rows, _ in shape):
        lines.append("    record = trace.record")
    return lines


def _feed_lines(shape: tuple, pad: str, fed_row: bool) -> list[str]:
    """The instruction-feed calls for one retired row, in feed order;
    ``fed_row`` says whether the row is a ``_SEG_FED`` row.

    A feed declaring the row set is called only at the plan's
    ``_SEG_FED`` rows, with the set's next cached view (the view is
    taken at every row of the set, so the cursor stays in step), and
    at those rows every other feed gets the same view.  A gated feed is
    called only while ``gate_<k>.armed``.  Other rows get a view built
    at the call (``record``), or read from ``records`` when some feed
    wants every instruction anyway; the row's index is
    ``base + rob_slot``.  Every feed is passed the row's dispatch
    cycle, which is ``fetch_cycle`` once the ROB check has run.
    """
    every = any(rows is None and not gated for rows, gated in shape)
    shared_view = fed_row and any(rows for rows, _ in shape)
    if shared_view:
        view = "rec"
    elif every:
        view = "records[base + rob_slot]"
    else:
        view = "record(base + rob_slot)"
    lines = [f"{pad}rec = fed_next()"] if shared_view else []
    for k, (rows, gated) in enumerate(shape):
        if rows and not fed_row:
            continue
        call = f"feed_{k}({view}, fetch_cycle)"
        if gated:
            lines += [f"{pad}if gate_{k}.armed:", f"{pad}    {call}"]
        else:
            lines.append(pad + call)
    return lines


def _segment_source(instr: bool, oa: bool, ona: bool, of: bool,
                    shape: tuple, table: tuple) -> str:
    """Source of a specialized segmented replay kernel.

    The emitted loop walks the plan's stretch ids, with one ``match``
    arm per stretch of ``table`` (most frequent first).  Each
    arm is the stretch as straight-line code: every row's fetch, ROB,
    issue and commit arithmetic with its operands folded to constants,
    the generic loop's ``index % rob_size`` as a rolling ROB slot, and
    the 32 register ready-times as locals (``r0`` ...), loaded from
    ``core._reg_ready`` at the start and written back at the end (no
    hook reads a core's registers, so nothing can see them stale).  A
    stretch that ends at a load or store carries that event's *scalar
    island* inline, which mirrors, effect for effect,
    ``Cache.lookup``/``fill``, ``_MshrFile`` (heap-ordered pending
    fills with cached minima),
    ``ShadowTagStore.access`` (precomputed), ``Hierarchy.demand_access``/
    ``_access_l2``/``_access_l3``/``prefetch``, and ``Dram.read``/
    ``write`` — against a virtualized
    hierarchy of flat ``[fill_time, dirty, prefetched, used,
    component]`` entries in recency-ordered per-set dicts (dict order
    is LRU order because ``Cache``'s use counter is strictly
    increasing, so victim selection is ``next(iter(set))``).  Demand
    misses and the demand DRAM read are inlined straight into the
    islands; ``do_prefetch`` keeps its early-return shape as a
    closure.  Hook call positions and ``AccessEvent`` payloads are
    exactly the generic loop's, so the prefetcher cannot distinguish
    the paths, and so are the ``credit_log`` entries.  Stats accumulate
    in locals and write back once, when the trace ends (nothing reads
    them mid-run: no observer of live state runs on this tier; the L3
    and DRAM counts are added to the shared stats objects, so a mix's
    kernels sum).  Instruction feeds are called as
    :func:`_feed_lines` emits them, a row-set feed at the plan's
    ``_SEG_FED`` rows.

    The kernel is a generator that yields every ``burst_rows`` rows.
    Each row bumps its ROB slot before touching the fetch clock, and
    tests the slot against ``stop``: the raw ring index of whichever
    comes first, the ring's wrap or the next burst boundary.  At that
    stop the kernel wraps the ring if it must and, at a boundary,
    writes ``core._fetch_cycle`` (still the previous row's) and yields,
    so a resume continues inside the stretch where the last one
    stopped; the rows pay nothing for bursting beyond the wrap check
    they make anyway.  The row after the last is never reached, so a
    burst as long as the trace (a single-core cell) never yields.
    """
    build_event = oa or ona
    lines: list[str] = []
    emit = lines.append

    def addr_math(ind: str, p: str, line: str) -> None:
        # Dram._map: (channel, bank, row) for one line.
        emit(f"{ind}{p}ch = {line} % channels")
        emit(f"{ind}{p}rest = {line} // channels")
        emit(f"{ind}{p}bank = {p}ch * banks_per_channel + "
             f"{p}rest % banks_per_channel")
        emit(f"{ind}{p}row = {p}rest // rows_div")

    def dram_read_tail(ind: str, entry: str = "fill_time") -> None:
        # Bank/row/bus algebra shared by the inlined demand and
        # prefetch reads; enters with dstart/dbank/drow/dch set, queues
        # ``entry`` and leaves the completion in fill_time.
        emit(f"{ind}dready = bank_ready[dbank]")
        emit(f"{ind}if dready > dstart:")
        emit(f"{ind}    dstart = dready")
        emit(f"{ind}drow_open = bank_row[dbank]")
        emit(f"{ind}if drow_open == drow:")
        emit(f"{ind}    daccess = t_cas")
        emit(f"{ind}    row_hits += 1")
        emit(f"{ind}elif drow_open is None:")
        emit(f"{ind}    daccess = t_rcd_cas")
        emit(f"{ind}    row_empty += 1")
        emit(f"{ind}else:")
        emit(f"{ind}    daccess = t_rp_rcd_cas")
        emit(f"{ind}    row_conflicts += 1")
        emit(f"{ind}ddata = dstart + daccess")
        emit(f"{ind}dready = bus_free[dch]")
        emit(f"{ind}if dready > ddata:")
        emit(f"{ind}    ddata = dready")
        emit(f"{ind}fill_time = ddata + burst")
        emit(f"{ind}bank_row[dbank] = drow")
        emit(f"{ind}bank_ready[dbank] = ddata")
        emit(f"{ind}bus_free[dch] = fill_time")
        emit(f"{ind}dq.append({entry})")
        emit(f"{ind}if fill_time < q_min[dch]:")
        emit(f"{ind}    q_min[dch] = fill_time")
        emit(f"{ind}d_reads += 1")

    def hook_block(ind: str, ev_args: tuple, flag: str,
                   level_expr: str) -> None:
        # The generic loop's hook sequence at one access: the replay's
        # one event refilled with ``ev_args`` (AccessEvent's arguments,
        # in order) when any event hook is live, on_prefetch_hit,
        # observers, issue requests, per-request on_fill.
        if build_event:
            for field, value in zip(_EVENT_ARGS, ev_args):
                emit(f"{ind}event.{field} = {value}")
            emit(f"{ind}if {flag}:")
            emit(f"{ind}    on_prefetch_hit(line, {level_expr})")
            if oa:
                emit(f"{ind}observe_access(event)")
            if ona:
                emit(f"{ind}requests = on_access(event)")
                emit(f"{ind}if requests:")
                emit(f"{ind}    for request in requests:")
                if of:
                    emit(f"{ind}        if do_prefetch(request.line, "
                         f"issue, request.target_level, "
                         f"request.component):")
                    emit(f"{ind}            on_fill(request.line, "
                         f"request.target_level, prefetched=True)")
                else:
                    emit(f"{ind}        do_prefetch(request.line, "
                         f"issue, request.target_level, "
                         f"request.component)")
        else:
            emit(f"{ind}if {flag}:")
            emit(f"{ind}    on_prefetch_hit(line, {level_expr})")

    def drain(ind: str, level: int, bound: str) -> None:
        # _MshrFile._prune: retire the pending fills due by ``bound``,
        # smallest first off the heap, keeping the cached minimum.
        emit(f"{ind}while l{level}_min_p <= {bound}:")
        emit(f"{ind}    heappop(l{level}_pending)")
        emit(f"{ind}    l{level}_min_p = l{level}_pending[0] "
             f"if l{level}_pending else far")

    def mshr_acquire(ind: str, level: int, now: str) -> None:
        # _MshrFile.acquire: prune, then wait for the earliest fill
        # when every MSHR is busy (``now`` becomes that fill).
        drain(ind, level, now)
        emit(f"{ind}if len(l{level}_pending) >= l{level}_cap:")
        emit(f"{ind}    {now} = l{level}_min_p")
        drain(ind + "    ", level, now)

    def mshr_push(ind: str, level: int) -> None:
        emit(f"{ind}heappush(l{level}_pending, fill_time)")
        emit(f"{ind}if fill_time < l{level}_min_p:")
        emit(f"{ind}    l{level}_min_p = fill_time")

    def pollution_entry(ind: str, level: int, tset: str) -> None:
        # Hierarchy._prefetch_victims before the fill: the set's
        # prefetched entries, sorted by line.
        emit(f"{ind}log_append(('on_pollution', {level}, tuple(sorted("
             f"(v, e[4]) for v, e in {tset}.items() if e[2]))))")

    def demand_miss_block(ind: str, is_write: str) -> None:
        # The miss leg of Hierarchy.demand_access + _access_l2 +
        # _access_l3 with the primary fills inlined (each preceding
        # lookup or probe proves the line absent, so the resident leg
        # is skipped).  Sets fill_time, level, served, component; tset1
        # is the L1 set the arm's lookup already indexed.
        emit(f"{ind}mnow = issue")
        emit(f"{ind}l1_misses += 1")
        emit(f"{ind}miss_lines_l1[line] += 1")
        emit(f"{ind}if sh1:")
        emit(f"{ind}    pollution_l1 += 1")
        pollution_entry(ind + "    ", 1, "tset1")
        mshr_acquire(ind, 1, "mnow")
        emit(f"{ind}t = mnow + l1_latency")
        emit(f"{ind}l2_acc += 1")
        emit(f"{ind}tset2 = l2_sets[line & l2_mask]")
        emit(f"{ind}entry = tset2.get(line)")
        emit(f"{ind}served = False")
        emit(f"{ind}if entry is not None:")
        emit(f"{ind}    del tset2[line]")
        emit(f"{ind}    tset2[line] = entry")
        emit(f"{ind}    served = entry[2] and not entry[3]")
        emit(f"{ind}    if served:")
        emit(f"{ind}        entry[3] = True")
        emit(f"{ind}if not sh1:")
        emit(f"{ind}    s2 = sh2_sets[line & sh2_mask]")
        emit(f"{ind}    if line in s2:")
        emit(f"{ind}        del s2[line]")
        emit(f"{ind}        sh2_hit = True")
        emit(f"{ind}    else:")
        emit(f"{ind}        sh2_hit = False")
        emit(f"{ind}        if len(s2) >= sh2_ways:")
        emit(f"{ind}            del s2[next(iter(s2))]")
        emit(f"{ind}    s2[line] = None")
        emit(f"{ind}if entry is not None:")
        emit(f"{ind}    l2_hits += 1")
        emit(f"{ind}    ready = entry[0]")
        emit(f"{ind}    if served:")
        emit(f"{ind}        l2_useful += 1")
        emit(f"{ind}        if ready > t:")
        emit(f"{ind}            l2_late += 1")
        emit(f"{ind}        log_append(('on_useful', line, entry[4], 2))")
        emit(f"{ind}    if ready < t:")
        emit(f"{ind}        ready = t")
        emit(f"{ind}    fill_time = ready + l2_lat")
        emit(f"{ind}    level = 2")
        emit(f"{ind}    component = entry[4]")
        emit(f"{ind}else:")
        i2 = ind + "    "
        emit(f"{i2}l2_missc += 1")
        emit(f"{i2}miss_lines_l2[line] += 1")
        emit(f"{i2}if not sh1 and sh2_hit:")
        emit(f"{i2}    pollution_l2 += 1")
        pollution_entry(i2 + "    ", 2, "tset2")
        mshr_acquire(i2, 2, "t")
        emit(f"{i2}now3 = t + l2_lat")
        emit(f"{i2}l3_acc += 1")
        emit(f"{i2}tset3 = l3_sets[line & l3_mask]")
        emit(f"{i2}entry3 = tset3.get(line)")
        emit(f"{i2}if entry3 is not None:")
        emit(f"{i2}    del tset3[line]")
        emit(f"{i2}    tset3[line] = entry3")
        emit(f"{i2}    l3_hits += 1")
        emit(f"{i2}    if entry3[2] and not entry3[3]:")
        emit(f"{i2}        entry3[3] = True")
        emit(f"{i2}        l3_useful += 1")
        emit(f"{i2}    ready = entry3[0]")
        emit(f"{i2}    if ready < now3:")
        emit(f"{i2}        ready = now3")
        emit(f"{i2}    fill_time = ready + l3_lat")
        emit(f"{i2}    level = 3")
        emit(f"{i2}else:")
        i3 = i2 + "    "
        emit(f"{i3}l3_missc += 1")
        emit(f"{i3}dnow = now3 + l3_lat")
        addr_math(i3, "d", "line")
        emit(f"{i3}dq = queues[dch]")
        emit(f"{i3}if q_min[dch] <= dnow:")
        emit(f"{i3}    dq[:] = [c for c in dq if c > dnow]")
        emit(f"{i3}    q_min[dch] = min(dq, default=far)")
        emit(f"{i3}dstart = dnow")
        emit(f"{i3}if len(dq) >= q_cap:")
        emit(f"{i3}    dstart = min(dq)")
        emit(f"{i3}    d_stalls += 1")
        emit(f"{i3}    dq[:] = [c for c in dq if c > dstart]")
        emit(f"{i3}    q_min[dch] = min(dq, default=far)")
        dram_read_tail(i3)
        emit(f"{i3}if len(tset3) >= l3_ways:")
        emit(f"{i3}    vline = next(iter(tset3))")
        emit(f"{i3}    victim = tset3.pop(vline)")
        emit(f"{i3}    l3_evic += 1")
        emit(f"{i3}    if victim[2] and not victim[3]:")
        emit(f"{i3}        l3_pfe += 1")
        emit(f"{i3}    if victim[1]:")
        emit(f"{i3}        l3_wb += 1")
        emit(f"{i3}        dram_write(vline, fill_time)")
        emit(f"{i3}tset3[line] = [fill_time, False, False, False, "
             f"None]")
        emit(f"{i3}level = 4")
        emit(f"{i2}if len(tset2) >= l2_ways:")
        emit(f"{i2}    vline = next(iter(tset2))")
        emit(f"{i2}    victim = tset2.pop(vline)")
        emit(f"{i2}    l2_evic += 1")
        emit(f"{i2}    if victim[2] and not victim[3]:")
        emit(f"{i2}        l2_pfe += 1")
        emit(f"{i2}    if victim[1]:")
        emit(f"{i2}        l2_wb += 1")
        emit(f"{i2}        fill_l3(vline, fill_time, True, False, "
             f"None)")
        emit(f"{i2}tset2[line] = [fill_time, False, False, False, "
             f"None]")
        mshr_push(i2, 2)
        emit(f"{i2}component = None")
        emit(f"{ind}if len(tset1) >= l1_ways:")
        emit(f"{ind}    vline = next(iter(tset1))")
        emit(f"{ind}    victim = tset1.pop(vline)")
        emit(f"{ind}    l1_evic += 1")
        emit(f"{ind}    if victim[2] and not victim[3]:")
        emit(f"{ind}        l1_pfe += 1")
        emit(f"{ind}    if victim[1]:")
        emit(f"{ind}        l1_wb += 1")
        emit(f"{ind}        fill_l2(vline, fill_time, True, False, "
             f"None)")
        emit(f"{ind}tset1[line] = [fill_time, {is_write}, False, "
             f"False, None]")
        mshr_push(ind, 1)

    def hit_stats_block(ind: str) -> None:
        # Hierarchy.demand_access's L1-hit stat legs, after the recency
        # bump.
        emit(f"{ind}first_use = cl[2] and not cl[3]")
        emit(f"{ind}if first_use:")
        emit(f"{ind}    cl[3] = True")
        emit(f"{ind}l1_hits += 1")
        emit(f"{ind}ready = cl[0]")
        emit(f"{ind}if first_use:")
        emit(f"{ind}    l1_useful += 1")
        emit(f"{ind}    if ready > issue:")
        emit(f"{ind}        l1_late += 1")
        emit(f"{ind}    log_append(('on_useful', line, cl[4], 1))")
        emit(f"{ind}elif ready > issue and not cl[2]:")
        emit(f"{ind}    l1_merges += 1")

    # ------------------------------------------------------------------
    # Prologue: hoists, virtual state, accumulators.
    # ------------------------------------------------------------------
    emit("def run_segmented(core, plan, feeds, route, shared, burst_rows):")
    emit('    """Generated segmented replay; see _segment_source."""')
    emit("    stats = core.stats")
    emit("    hierarchy = core.hierarchy")
    emit("    l1 = hierarchy.l1d")
    emit("    l2 = hierarchy.l2")
    emit("    l3 = hierarchy.l3")
    emit("    dram = hierarchy.dram")
    emit("    cfg = dram.config")
    emit("    l1_latency = l1.hit_latency")
    emit("    l2_lat = l2.hit_latency")
    emit("    l3_lat = l3.hit_latency")
    emit("    l1_mask = l1._set_mask")
    emit("    l2_mask = l2._set_mask")
    emit("    l3_mask = l3._set_mask")
    emit("    l1_ways = l1.ways")
    emit("    l2_ways = l2.ways")
    emit("    l3_ways = l3.ways")
    emit("    sh2_mask = hierarchy.shadow_l2._set_mask")
    emit("    sh2_ways = hierarchy.shadow_l2.ways")
    emit("    l1_cap = hierarchy._l1_mshrs.capacity")
    emit("    l2_cap = hierarchy._l2_mshrs.capacity")
    emit("    burst = cfg.burst")
    emit("    q_cap = cfg.queue_capacity")
    emit("    channels = cfg.channels")
    emit("    banks_per_channel = cfg.ranks_per_channel * "
         "cfg.banks_per_rank")
    emit("    rows_div = banks_per_channel * cfg.lines_per_row")
    emit("    t_cas = cfg.t_cas")
    emit("    t_rcd_cas = cfg.t_rcd + t_cas")
    emit("    t_rp_rcd_cas = cfg.t_rp + t_rcd_cas")
    emit("    t_rcd = cfg.t_rcd")
    emit("    t_rp_rcd = cfg.t_rp + t_rcd")
    emit("    miss_lines_l1 = hierarchy.miss_lines_l1")
    emit("    miss_lines_l2 = hierarchy.miss_lines_l2")
    emit("    attempted_add = hierarchy.attempted_prefetch_lines.add")
    emit("    attempted_by_component = hierarchy.attempted_by_component")
    emit("    by_component = hierarchy.prefetch_stats.by_component")
    emit("    miss_pcs = stats.miss_pcs")
    emit("    miss_latency_by_pc = stats.miss_latency_by_pc")
    emit("    trace = core.trace")
    for line in _feed_head(shape):
        emit(line)
    if oa:
        emit("    observe_access = core._observe_access")
    if ona:
        emit("    on_access = route")
    if of:
        emit("    on_fill = core._on_fill")
    emit("    on_prefetch_hit = core.prefetcher.on_prefetch_hit")
    if build_event:
        # One event per replay, refilled at every access: a hook may
        # read it only during its call (AccessEvent).
        emit("    event = AccessEvent(0, 0, 0, 0, 0, False, False, False, "
             "0, 0, -1)")
    emit("    log_append = hierarchy.credit_log.append")
    emit("")
    emit("    low_first = cfg.drop_policy is LOW_PRIORITY_FIRST")
    emit("    far = _FAR")
    emit("    l1_sets = [dict() for _ in range(l1.num_sets)]")
    emit("    l2_sets = [dict() for _ in range(l2.num_sets)]")
    emit("    sh2_sets = [dict() for _ in "
         "range(hierarchy.shadow_l2.num_sets)]")
    emit("    l1_pending = []")
    emit("    l1_min_p = far")
    emit("    l2_pending = []")
    emit("    l2_min_p = far")
    emit("    l3_sets = shared.l3_sets")
    emit("    bank_ready = shared.bank_ready")
    emit("    bank_row = shared.bank_row")
    emit("    bus_free = shared.bus_free")
    emit("    queues = shared.queues")
    emit("    q_min = shared.q_min")
    emit("")
    for name in ("l1_hits", "l1_misses", "l1_useful", "l1_late",
                 "l1_merges", "l1_evic", "l1_wb", "l1_pff", "l1_pfe",
                 "l2_acc", "l2_hits", "l2_missc", "l2_useful",
                 "l2_late", "l2_evic", "l2_wb", "l2_pff", "l2_pfe",
                 "l3_acc", "l3_hits", "l3_missc", "l3_useful",
                 "l3_evic", "l3_wb", "l3_pff", "l3_pfe",
                 "d_reads", "d_writes", "row_hits", "row_empty",
                 "row_conflicts", "d_dropped", "d_stalls",
                 "pf_issued", "pf_to_l1", "pf_to_l2", "pf_filtered",
                 "pf_drop_mshr", "pf_drop_dram",
                 "pollution_l1", "pollution_l2"):
        emit(f"    {name} = 0")
    emit("")

    # ------------------------------------------------------------------
    # dram_write (fill-cascade writebacks only).
    # ------------------------------------------------------------------
    emit("    def dram_write(wline, now):")
    emit("        # Dram.write: no queue admission, no t_cas on the")
    emit("        # empty/conflict legs (the write access constants).")
    emit("        nonlocal d_writes, row_hits, row_empty, row_conflicts")
    addr_math("        ", "w", "wline")
    emit("        start = bank_ready[wbank]")
    emit("        if start < now:")
    emit("            start = now")
    emit("        open_row = bank_row[wbank]")
    emit("        if open_row == wrow:")
    emit("            access = t_cas")
    emit("            row_hits += 1")
    emit("        elif open_row is None:")
    emit("            access = t_rcd")
    emit("            row_empty += 1")
    emit("        else:")
    emit("            access = t_rp_rcd")
    emit("            row_conflicts += 1")
    emit("        data_start = start + access")
    emit("        ready = bus_free[wch]")
    emit("        if ready > data_start:")
    emit("            data_start = ready")
    emit("        bank_row[wbank] = wrow")
    emit("        bank_ready[wbank] = data_start")
    emit("        bus_free[wch] = data_start + burst")
    emit("        d_writes += 1")
    emit("")

    # ------------------------------------------------------------------
    # Writeback-cascade fills: full Cache.fill semantics (the cascaded
    # line may be resident below).  Primary fills are inlined at their
    # call sites instead and skip the resident leg.
    # ------------------------------------------------------------------
    emit("    def fill_l3(fline, fill_time, dirty, prefetched, "
         "component):")
    emit("        nonlocal l3_evic, l3_wb, l3_pfe, l3_pff")
    emit("        tset = l3_sets[fline & l3_mask]")
    emit("        entry = tset.get(fline)")
    emit("        if entry is not None:")
    emit("            if fill_time < entry[0]:")
    emit("                entry[0] = fill_time")
    emit("            if dirty:")
    emit("                entry[1] = True")
    emit("            return")
    emit("        if len(tset) >= l3_ways:")
    emit("            vline = next(iter(tset))")
    emit("            victim = tset.pop(vline)")
    emit("            l3_evic += 1")
    emit("            if victim[2] and not victim[3]:")
    emit("                l3_pfe += 1")
    emit("            if victim[1]:")
    emit("                l3_wb += 1")
    emit("                dram_write(vline, fill_time)")
    emit("        tset[fline] = [fill_time, dirty, prefetched, False, "
         "component]")
    emit("        if prefetched:")
    emit("            l3_pff += 1")
    emit("")
    emit("    def fill_l2(fline, fill_time, dirty, prefetched, "
         "component):")
    emit("        nonlocal l2_evic, l2_wb, l2_pfe, l2_pff")
    emit("        tset = l2_sets[fline & l2_mask]")
    emit("        entry = tset.get(fline)")
    emit("        if entry is not None:")
    emit("            if fill_time < entry[0]:")
    emit("                entry[0] = fill_time")
    emit("            if dirty:")
    emit("                entry[1] = True")
    emit("            return")
    emit("        if len(tset) >= l2_ways:")
    emit("            vline = next(iter(tset))")
    emit("            victim = tset.pop(vline)")
    emit("            l2_evic += 1")
    emit("            if victim[2] and not victim[3]:")
    emit("                l2_pfe += 1")
    emit("            if victim[1]:")
    emit("                l2_wb += 1")
    emit("                fill_l3(vline, fill_time, True, False, None)")
    emit("        tset[fline] = [fill_time, dirty, prefetched, False, "
         "component]")
    emit("        if prefetched:")
    emit("            l2_pff += 1")
    emit("")

    # ------------------------------------------------------------------
    # do_prefetch: Hierarchy.prefetch with _access_l3 and the primary
    # fills inlined; a closure because of the early-return shape.
    # ------------------------------------------------------------------
    emit("    def do_prefetch(pline, now, target_level, component):")
    emit("        nonlocal pf_filtered, pf_drop_mshr, pf_drop_dram, \\")
    emit("            pf_issued, pf_to_l1, pf_to_l2, l1_min_p, "
         "l2_min_p, \\")
    emit("            l1_evic, l1_wb, l1_pfe, l1_pff, l2_evic, l2_wb, "
         "\\")
    emit("            l2_pfe, l2_pff, l3_evic, l3_wb, l3_pfe, l3_pff, \\")
    emit("            d_reads, d_dropped, row_hits, row_empty, \\")
    emit("            row_conflicts")
    emit("        if target_level == 1:")
    emit("            tset = l1_sets[pline & l1_mask]")
    emit("        elif target_level == 2:")
    emit("            tset = l2_sets[pline & l2_mask]")
    emit("        else:")
    emit("            raise ValueError(")
    emit("                f\"prefetch target must be 1 or 2, got "
         "{target_level}\")")
    emit("        attempted_add(pline)")
    emit("        if component is not None:")
    emit("            per_component = "
         "attempted_by_component.get(component)")
    emit("            if per_component is None:")
    emit("                per_component = "
         "attempted_by_component[component] = set()")
    emit("            per_component.add(pline)")
    emit("        if pline in tset:")
    emit("            pf_filtered += 1")
    emit("            return False")
    emit("        # MSHR try_acquire_prefetch at the target level.")
    emit("        if target_level == 1:")
    drain("            ", 1, "now")
    emit("            if len(l1_pending) >= l1_cap:")
    emit("                pf_drop_mshr += 1")
    emit("                return False")
    emit("        else:")
    drain("            ", 2, "now")
    emit("            if len(l2_pending) >= l2_cap:")
    emit("                pf_drop_mshr += 1")
    emit("                return False")
    emit("        # Locate the data below the target level.")
    emit("        entry = None")
    emit("        if target_level == 1:")
    emit("            tset2 = l2_sets[pline & l2_mask]")
    emit("            entry = tset2.get(pline)")
    emit("        else:")
    emit("            tset2 = tset")
    emit("        if entry is not None:")
    emit("            # l2.lookup(touch=True): bump, touch, consume")
    emit("            # the first-use flag without counting usefulness.")
    emit("            del tset2[pline]")
    emit("            tset2[pline] = entry")
    emit("            if entry[2] and not entry[3]:")
    emit("                entry[3] = True")
    emit("            ready = entry[0]")
    emit("            if ready < now:")
    emit("                ready = now")
    emit("            fill_time = ready + l2_lat")
    emit("        else:")
    emit("            # _access_l3 (prefetch probes bump/touch/consume")
    emit("            # statlessly).")
    emit("            tset3 = l3_sets[pline & l3_mask]")
    emit("            entry3 = tset3.get(pline)")
    emit("            if entry3 is not None:")
    emit("                del tset3[pline]")
    emit("                tset3[pline] = entry3")
    emit("                if entry3[2] and not entry3[3]:")
    emit("                    entry3[3] = True")
    emit("                ready = entry3[0]")
    emit("                if ready < now:")
    emit("                    ready = now")
    emit("                fill_time = ready + l3_lat")
    emit("            else:")
    emit("                dnow = now + l3_lat")
    addr_math("                ", "d", "pline")
    emit("                dq = queues[dch]")
    emit("                if q_min[dch] <= dnow:")
    emit("                    dq[:] = [c for c in dq if c > dnow]")
    emit("                    q_min[dch] = min(dq, default=far)")
    emit("                if len(dq) >= q_cap:")
    emit("                    # Dram._admit: RANDOM sheds the incoming")
    emit("                    # prefetch; LOW_PRIORITY_FIRST sheds an")
    emit("                    # incoming low-priority one, else evicts the")
    emit("                    # first queued low-priority prefetch (the")
    emit("                    # stale q_min stays), else sheds it too.")
    emit("                    d_dropped += 1")
    emit("                    victim = -1")
    emit("                    if low_first and component not in "
         "low_components:")
    emit("                        for k, c in enumerate(dq):")
    emit("                            if type(c) is _LowPriority:")
    emit("                                victim = k")
    emit("                                break")
    emit("                    if victim < 0:")
    emit("                        pf_drop_dram += 1")
    emit("                        return False")
    emit("                    del dq[victim]")
    emit("                dstart = dnow")
    dram_read_tail("                ",
                   "_LowPriority(fill_time) if low_first and component "
                   "in low_components else fill_time")
    emit("                # Primary L3 fill.")
    emit("                if len(tset3) >= l3_ways:")
    emit("                    vline = next(iter(tset3))")
    emit("                    victim = tset3.pop(vline)")
    emit("                    l3_evic += 1")
    emit("                    if victim[2] and not victim[3]:")
    emit("                        l3_pfe += 1")
    emit("                    if victim[1]:")
    emit("                        l3_wb += 1")
    emit("                        dram_write(vline, fill_time)")
    emit("                tset3[pline] = [fill_time, False, True, "
         "False, component]")
    emit("                l3_pff += 1")
    emit("            # Primary L2 fill: for target 1 the locate probe")
    emit("            # missed, for target 2 the filter probe did.")
    emit("            if len(tset2) >= l2_ways:")
    emit("                vline = next(iter(tset2))")
    emit("                victim = tset2.pop(vline)")
    emit("                l2_evic += 1")
    emit("                if victim[2] and not victim[3]:")
    emit("                    l2_pfe += 1")
    emit("                if victim[1]:")
    emit("                    l2_wb += 1")
    emit("                    fill_l3(vline, fill_time, True, False, "
         "None)")
    emit("            tset2[pline] = [fill_time, False, True, False, "
         "component]")
    emit("            l2_pff += 1")
    emit("        if target_level == 1:")
    emit("            # Primary L1 fill (the filter probe missed).")
    emit("            if len(tset) >= l1_ways:")
    emit("                vline = next(iter(tset))")
    emit("                victim = tset.pop(vline)")
    emit("                l1_evic += 1")
    emit("                if victim[2] and not victim[3]:")
    emit("                    l1_pfe += 1")
    emit("                if victim[1]:")
    emit("                    l1_wb += 1")
    emit("                    fill_l2(vline, fill_time, True, False, "
         "None)")
    emit("            tset[pline] = [fill_time, False, True, False, "
         "component]")
    emit("            l1_pff += 1")
    emit("            pf_to_l1 += 1")
    emit("        else:")
    emit("            pf_to_l2 += 1")
    emit("        pf_issued += 1")
    emit("        by_component[component or \"?\"] += 1")
    emit("        if target_level == 1:")
    mshr_push("            ", 1)
    emit("        else:")
    mshr_push("            ", 2)
    emit("        log_append(('on_prefetch_issued', pline, component))")
    emit("        return True")
    emit("")

    # ------------------------------------------------------------------
    # The stretch loop: one straight-line arm per distinct stretch.
    # ------------------------------------------------------------------
    def load_island(ind: str, dst: int) -> None:
        # A load's hit leg or miss leg, then its register write (the
        # generic loop's ``reg_ready[dst]``, so a dst of -1 is r31).
        i2 = ind + "    "
        emit(f"{ind}pc, addr, line, mpc, value, sh1 = ev_next()")
        emit(f"{ind}tset1 = l1_sets[line & l1_mask]")
        emit(f"{ind}cl = tset1.get(line)")
        emit(f"{ind}if cl is not None:")
        emit(f"{i2}del tset1[line]")
        emit(f"{i2}tset1[line] = cl")
        hit_stats_block(i2)
        emit(f"{i2}if ready < issue:")
        emit(f"{i2}    ready = issue")
        emit(f"{i2}complete = ready + l1_latency")
        emit(f"{i2}latency = complete - issue")
        emit(f"{i2}load_latency_total += latency")
        hook_block(i2,
                   ("issue", "pc", "mpc", "addr", "line", "True", "True",
                    "False", "latency", "value", dst, "first_use",
                    "cl[4]"),
                   "first_use", "1")
        emit(f"{ind}else:")
        demand_miss_block(i2, "False")
        emit(f"{i2}complete = fill_time")
        emit(f"{i2}latency = complete - issue")
        emit(f"{i2}load_latency_total += latency")
        emit(f"{i2}miss_pcs[pc] += 1")
        emit(f"{i2}miss_latency_by_pc[pc] += latency")
        hook_block(i2,
                   ("issue", "pc", "mpc", "addr", "line", "True", "False",
                    "True", "latency", "value", dst, "served",
                    "component"),
                   "served", "level")
        if of:
            emit(f"{i2}on_fill(line, 1)")
        emit(f"{ind}r{dst % NUM_REGISTERS} = complete")

    def store_island(ind: str) -> None:
        i2 = ind + "    "
        emit(f"{ind}pc, addr, line, mpc, value, sh1 = ev_next()")
        emit(f"{ind}tset1 = l1_sets[line & l1_mask]")
        emit(f"{ind}cl = tset1.get(line)")
        emit(f"{ind}if cl is not None:")
        emit(f"{i2}del tset1[line]")
        emit(f"{i2}tset1[line] = cl")
        emit(f"{i2}cl[1] = True")
        hit_stats_block(i2)
        hook_block(i2,
                   ("issue", "pc", "mpc", "addr", "line", "False", "True",
                    "False", 0, 0, -1, "first_use", "cl[4]"),
                   "first_use", "1")
        emit(f"{ind}else:")
        demand_miss_block(i2, "True")
        hook_block(i2,
                   ("issue", "pc", "mpc", "addr", "line", "False", "False",
                    "True", 0, 0, -1, "served", "component"),
                   "served", "level")
        if of:
            emit(f"{i2}on_fill(line, 1)")
        emit(f"{ind}complete = issue + 1")

    def row_code(ind: str, row: tuple) -> None:
        # One row of OoOCore.step with its operands folded: the ROB
        # slot first (so a burst stop sees the previous row's fetch
        # cycle), then fetch, the ROB stall, feeds, issue, the event
        # or the register write, and in-order commit.
        cls, s1, s2, dst, lat = row
        emit(f"{ind}rob_slot += 1")
        emit(f"{ind}if rob_slot == stop:")
        emit(f"{ind}    if rob_slot == rob_size:")
        emit(f"{ind}        rob_slot = 0")
        emit(f"{ind}        base += rob_size")
        emit(f"{ind}    if base + rob_slot == next_burst:")
        emit(f"{ind}        core._fetch_cycle = fetch_cycle")
        emit(f"{ind}        yield True")
        emit(f"{ind}        next_burst += burst_rows")
        emit(f"{ind}    stop = next_burst - base")
        emit(f"{ind}    if stop > rob_size:")
        emit(f"{ind}        stop = rob_size")
        emit(f"{ind}if fetch_slot >= width:")
        emit(f"{ind}    fetch_cycle += 1")
        emit(f"{ind}    fetch_slot = 1")
        emit(f"{ind}else:")
        emit(f"{ind}    fetch_slot += 1")
        emit(f"{ind}rob_free = commit_ring[rob_slot]")
        emit(f"{ind}if rob_free > fetch_cycle:")
        emit(f"{ind}    fetch_cycle = rob_free")
        emit(f"{ind}    fetch_slot = 1")
        lines.extend(_feed_lines(shape, ind, cls == _SEG_FED))
        sources = dict.fromkeys(s for s in (s1, s2) if s >= 0)
        if sources or cls in (_SEG_LOAD, _SEG_STORE):
            emit(f"{ind}issue = fetch_cycle")
            for s in sources:
                emit(f"{ind}if r{s} > issue:")
                emit(f"{ind}    issue = r{s}")
            ready = "issue"
        else:
            ready = "fetch_cycle"
        if cls == _SEG_LOAD:
            load_island(ind, dst)
        elif cls == _SEG_STORE:
            store_island(ind)
        else:
            emit(f"{ind}complete = {ready} + {lat}")
            if cls == _SEG_BP_MISS:
                emit(f"{ind}fetch_cycle = complete + branch_penalty")
                emit(f"{ind}fetch_slot = 0")
            elif dst >= 0:
                emit(f"{ind}r{dst} = complete")
        emit(f"{ind}if complete > last_commit:")
        emit(f"{ind}    last_commit = complete")
        emit(f"{ind}    commits_at_time = 1")
        emit(f"{ind}else:")
        emit(f"{ind}    commits_at_time += 1")
        emit(f"{ind}    if commits_at_time > width:")
        emit(f"{ind}        last_commit += 1")
        emit(f"{ind}        commits_at_time = 1")
        emit(f"{ind}commit_ring[rob_slot] = last_commit")

    registers = set()
    for stretch in table:
        for cls, s1, s2, dst, _ in stretch:
            registers.update(s for s in (s1, s2) if s >= 0)
            if cls == _SEG_LOAD or dst >= 0:
                registers.add(dst % NUM_REGISTERS)
    registers = sorted(registers)
    emit("    width = core._width")
    emit("    branch_penalty = core._branch_penalty")
    emit("    rob_size = core._rob_size")
    emit("    commit_ring = core._commit_ring")
    emit("    reg_ready = core._reg_ready")
    for reg in registers:
        emit(f"    r{reg} = reg_ready[{reg}]")
    emit("    ev_next = iter(plan.ev_rows).__next__")
    emit("    fetch_cycle = 0")
    emit("    fetch_slot = 0")
    emit("    last_commit = 0")
    emit("    commits_at_time = 0")
    emit("    load_latency_total = 0")
    emit("    rob_slot = rob_size - 1")
    # Row index - rob_slot: the first row wraps the ring to 0.
    emit("    base = -rob_size")
    emit("    next_burst = burst_rows")
    emit("    stop = rob_size")
    # One ``match`` arm per stretch, most frequent first.  An
    # ``if``/``elif`` chain dispatches as fast but nests one level per
    # arm, and CPython's compiler runs out of recursion depth at a few
    # thousand arms; ``match`` arms compile flat.
    if table:
        emit("    for sid in plan.stretch_ids:")
    else:
        # An empty trace has no row to yield at; still a generator.
        emit("    yield from ()")
    if len(table) > 1:
        emit("        match sid:")
    for sid, stretch in enumerate(table):
        ind = "        "
        if len(table) > 1:
            ind = "                "
            emit(f"            case {sid if sid < len(table) - 1 else '_'}:")
        for row in stretch:
            row_code(ind, row)
    for reg in registers:
        emit(f"    reg_ready[{reg}] = r{reg}")
    emit("")

    # ------------------------------------------------------------------
    # Finalization: write the virtualized story into the real objects.
    # ------------------------------------------------------------------
    emit("    n = plan.n")
    emit("    core._index = n")
    emit("    core._fetch_cycle = fetch_cycle")
    emit("    core._fetch_slot = fetch_slot")
    emit("    core._last_commit_time = last_commit")
    emit("    core._commits_at_time = commits_at_time")
    emit("    stats.instructions += n")
    emit("    stats.cycles = last_commit")
    emit("    stats.loads += plan.loads")
    emit("    stats.stores += plan.stores")
    emit("    stats.branches += plan.branches")
    emit("    stats.mispredicts += plan.mispredicts")
    emit("    stats.load_latency_total += load_latency_total")
    emit("    l1_stats = l1.stats")
    emit("    l1_stats.demand_accesses += plan.n_mem")
    emit("    l1_stats.demand_hits += l1_hits")
    emit("    l1_stats.demand_misses += l1_misses")
    emit("    l1_stats.mshr_merges += l1_merges")
    emit("    l1_stats.useful_prefetches += l1_useful")
    emit("    l1_stats.late_prefetch_hits += l1_late")
    emit("    l1_stats.evictions += l1_evic")
    emit("    l1_stats.writebacks += l1_wb")
    emit("    l1_stats.prefetch_fills += l1_pff")
    emit("    l1_stats.prefetch_evicted_unused += l1_pfe")
    emit("    l2_stats = l2.stats")
    emit("    l2_stats.demand_accesses += l2_acc")
    emit("    l2_stats.demand_hits += l2_hits")
    emit("    l2_stats.demand_misses += l2_missc")
    emit("    l2_stats.useful_prefetches += l2_useful")
    emit("    l2_stats.late_prefetch_hits += l2_late")
    emit("    l2_stats.evictions += l2_evic")
    emit("    l2_stats.writebacks += l2_wb")
    emit("    l2_stats.prefetch_fills += l2_pff")
    emit("    l2_stats.prefetch_evicted_unused += l2_pfe")
    emit("    l3_stats = l3.stats")
    emit("    l3_stats.demand_accesses += l3_acc")
    emit("    l3_stats.demand_hits += l3_hits")
    emit("    l3_stats.demand_misses += l3_missc")
    emit("    l3_stats.useful_prefetches += l3_useful")
    emit("    l3_stats.evictions += l3_evic")
    emit("    l3_stats.writebacks += l3_wb")
    emit("    l3_stats.prefetch_fills += l3_pff")
    emit("    l3_stats.prefetch_evicted_unused += l3_pfe")
    emit("    dram_stats = dram.stats")
    emit("    dram_stats.reads += d_reads")
    emit("    dram_stats.writes += d_writes")
    emit("    dram_stats.row_hits += row_hits")
    emit("    dram_stats.row_empty += row_empty")
    emit("    dram_stats.row_conflicts += row_conflicts")
    emit("    dram_stats.dropped_prefetches += d_dropped")
    emit("    dram_stats.demand_queue_stalls += d_stalls")
    emit("    pf_stats = hierarchy.prefetch_stats")
    emit("    pf_stats.issued += pf_issued")
    emit("    pf_stats.issued_to_l1 += pf_to_l1")
    emit("    pf_stats.issued_to_l2 += pf_to_l2")
    emit("    pf_stats.filtered += pf_filtered")
    emit("    pf_stats.dropped_mshr += pf_drop_mshr")
    emit("    pf_stats.dropped_dram += pf_drop_dram")
    emit("    hierarchy.pollution_misses_l1 += pollution_l1")
    emit("    hierarchy.pollution_misses_l2 += pollution_l2")
    emit("    return stats")
    return "\n".join(lines) + "\n"
