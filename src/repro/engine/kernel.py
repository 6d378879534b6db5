"""Specializing replay kernels: partial evaluation of the step loop.

The generic replay loop (``OoOCore.step`` in :mod:`repro.engine.ooo`)
carries a branch for every optional prefetcher hook — instruction-stream
feed, per-access observer, prefetch-request generator, fill
notification — and re-derives per-record facts (line index, ``mPC``,
dispatch class, the static predictor's outcome) on every retired
instruction of every matrix cell.

This module partial-evaluates that loop for the cores of a multicore
mix.  A core's hook shape is summarized as a tuple of four flags
(:func:`kernel_flags`); for each distinct tuple we generate the
*source* of a ``run_bursts(core, burst, feeds)`` generator with the
dead hook branches simply absent, ``exec``-compile it once per
process, and cache it (the same technique :mod:`dataclasses` uses for
``__init__``).  The trace-invariant facts come precomputed from the
compiled trace's derived columns (:mod:`repro.isa.trace`), built once
per workload and persisted by the trace cache.  A single-core cell
does not run these kernels: the same flags select the segmented tier
(:mod:`repro.engine.segmented`), whose kernels reuse this module's
instruction-feed lines (:func:`feed_lines`, :func:`feed_head`).

The instruction-stream hook is not called per instruction either.
:func:`core_feeds` lists the leaf feeds behind a core's hook
(:func:`repro.core.composite.instruction_feeds`: a composite's or
shunt's forwarder expands into its components), and each kernel calls a
feed only on the rows it declares (``feed_rows``: T2's taken backward
branches) and only while its gate is armed (``feed_gate``: P1's taint
walk), with a :class:`~repro.isa.trace.TraceRecord` view built only for
the rows it feeds (:func:`feed_lines`).  A feed that declares nothing
gets every instruction.  The kernel cache keys on the feed shape too;
variant names stay the four-flag names.

Every kernel also inlines the L1 *hit* leg of
``Hierarchy.demand_access``: the set-dict probe, LRU touch, shadow-tag
update, hit accounting, and the ``on_useful`` entry of the hierarchy's
``credit_log`` run as straight-line code, and the hierarchy is only
called on a miss (``Hierarchy._demand_miss``).  Hit-counter updates are
accumulated in locals and written back once at the end — nothing reads
them mid-run, because a kernel never runs with an observer of live
state attached.  A sampler, a telemetry hub, a dynamic branch
predictor, or an object trace makes :func:`kernel_flags` return
``None``, and the generic loop runs instead.

Bit-identity is the contract: a specialized kernel must retire every
instruction with exactly the timing of the generic loop — only wall
clock may change, never a number.  The kernels read the trace's list
columns and the generic loop its record views, so the check also pins
the two representations against each other; and the generic loop
feeds every hook every instruction, so it also proves each feed
declaration.  ``tests/test_kernels.py`` and ``repro fuzz`` pin it
against the ``REPRO_KERNEL=generic`` escape hatch (which disables
specialization entirely, e.g. to bisect a suspected kernel bug).

The generator yields after every burst of retired instructions, so
:func:`~repro.engine.multicore.simulate_multicore` can interleave the
cores exactly as it interleaves ``step()`` bursts.  The chosen variant
name is carried on ``SimulationResult.kernel`` so benchmarks and the
fault journal can attribute timings to a kernel.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import contextmanager

from repro.core.base import AccessEvent
from repro.engine.branch import StaticPredictor
from repro.isa.trace import CompiledTrace
from repro.obs.metrics import PROCESS

KERNEL_ENV = "REPRO_KERNEL"
GENERIC = "generic"

_KERNELS: dict[tuple, object] = {}
"""Compiled kernels by ``(flags, feed shape)``.  Every selection counts
``kernel.selected.<variant>`` and every exec-compile
``kernel.compiled.<variant>`` in the process metrics registry
(:mod:`repro.obs.metrics`); the segmented tier counts its own kernels
there too, plus ``kernel.plan_builds`` and ``kernel.plan_cache_hits``."""


@contextmanager
def pinned_kernel(tier: str | None):
    """``REPRO_KERNEL`` pinned to ``tier`` (unset, i.e. the automatic
    selection, when ``None``), environment restored after."""
    previous = os.environ.get(KERNEL_ENV)
    if tier is None:
        os.environ.pop(KERNEL_ENV, None)
    else:
        os.environ[KERNEL_ENV] = tier
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = previous


def kernel_flags(core) -> tuple | None:
    """The hook-shape flag tuple for ``core``, or ``None`` for generic.

    Flags (in order): instruction-stream feed, access observer, access
    hook (request generator), fill hook.  ``None`` means the generic
    step loop must run: an object trace, a sampler, a telemetry hub on
    the hierarchy, a dynamic branch predictor, or the
    ``REPRO_KERNEL=generic`` escape hatch.
    """
    if os.environ.get(KERNEL_ENV) == GENERIC:
        return None
    if not isinstance(core.trace, CompiledTrace):
        return None
    if (core._sampler is not None
            or core.hierarchy.telemetry is not None
            or type(core._branch_predictor) is not StaticPredictor):
        return None
    return (
        core._observe_instruction is not None,
        core._observe_access is not None,
        core._on_access is not None,
        core._on_fill is not None,
    )


def variant_name(flags: tuple) -> str:
    """Human-readable kernel name, e.g.
    ``fast+observe+issue+leanmem+staticbp``."""
    instr, oa, ona, of = flags
    parts = ["fast"]
    if instr:
        parts.append("instr")
    if oa:
        parts.append("observe")
    if ona:
        parts.append("issue")
    if of:
        parts.append("fill")
    parts += ["leanmem", "staticbp"]
    return "+".join(parts)


def core_feeds(core) -> list[tuple]:
    """The leaf instruction feeds of ``core``'s prefetcher, in call
    order (:func:`repro.core.composite.instruction_feeds`); empty when
    it has no instruction-stream hook."""
    from repro.core.composite import instruction_feeds

    hook = core._observe_instruction
    return instruction_feeds(hook) if hook is not None else []


def feed_shape(feeds: list[tuple]) -> tuple:
    """The kernel-key part of ``feeds``: ``(rows, gated)`` per feed."""
    return tuple((rows, gate is not None) for _, rows, gate in feeds)


def get_kernel(flags: tuple, shape: tuple = ()):
    """The compiled ``run_bursts(core, burst, feeds)`` for ``flags`` and
    the feed ``shape`` (generated on first use)."""
    variant = variant_name(flags)
    PROCESS.count(f"kernel.selected.{variant}")
    key = (flags, shape)
    kernel = _KERNELS.get(key)
    if kernel is None:
        PROCESS.count(f"kernel.compiled.{variant}")
        source = kernel_source(flags, shape)
        namespace = {"AccessEvent": AccessEvent, "bisect_left": bisect_left}
        exec(compile(source, f"<kernel {variant} run_bursts>", "exec"),
             namespace)
        kernel = namespace["run_bursts"]
        kernel.__kernel_source__ = source
        _KERNELS[key] = kernel
    return kernel


# ----------------------------------------------------------------------
# Source generation.  Every emitted line mirrors a line of the generic
# loop in engine/ooo.py (or of Cache.lookup / ShadowTagStore.access /
# the demand_access hit leg); the specialization only *removes*
# branches whose condition is decided by the flags, it never reorders
# effects.

def feed_lines(shape: tuple, pad: str, at_row: str, take_row: list[str],
               index: str) -> list[str]:
    """The instruction-feed calls for one retired instruction, in feed
    order, shared by both kernel tiers.

    A feed declaring the row set is called only where ``at_row`` holds,
    with the view ``take_row`` leaves in ``rec`` (the lines run at every
    row of the set, so the caller's row cursor stays in step).  A gated
    feed is called only while ``gate_<k>.armed``.  Other rows get a view
    built at the call (``record``), or read from ``records`` when some
    feed wants every instruction anyway.
    """
    has_rows = any(rows for rows, _ in shape)
    every = any(rows is None and not gated for rows, gated in shape)
    view = f"records[{index}]" if every else f"record({index})"

    def calls(ind: str, rec: str, fed_row: bool) -> list[str]:
        out = []
        for k, (rows, gated) in enumerate(shape):
            if rows and not fed_row:
                continue
            call = f"feed_{k}({rec}, dispatch)"
            if gated:
                out += [f"{ind}if gate_{k}.armed:", f"{ind}    {call}"]
            else:
                out.append(ind + call)
        return out

    if not has_rows:
        return calls(pad, view, False)
    inner = pad + "    "
    lines = [f"{pad}if {at_row}:", *(inner + line for line in take_row),
             *calls(inner, "rec", True)]
    rest = calls(inner, view, False)
    if rest:
        lines += [f"{pad}else:", *rest]
    return lines


def feed_head(shape: tuple, pad: str) -> list[str]:
    """Bindings :func:`feed_lines` reads: ``feed_<k>``, ``gate_<k>``,
    and ``records`` or ``record`` (``trace`` and ``feeds`` in scope)."""
    lines = []
    for k, (_, gated) in enumerate(shape):
        lines.append(f"{pad}feed_{k} = feeds[{k}][0]")
        if gated:
            lines.append(f"{pad}gate_{k} = feeds[{k}][2]")
    if any(rows is None and not gated for rows, gated in shape):
        lines.append(f"{pad}records = trace.records")
    elif any(rows is None for rows, _ in shape):
        lines.append(f"{pad}record = trace.record")
    return lines


def _hook_lines(flags: tuple, is_load: bool, indent: int, *, hit: bool,
                served: str, component: str, level: str, latency: str,
                value: str, dst: str) -> list[str]:
    """The post-access hook block, parameterized over where the access
    outcome lives (the inlined hit-leg locals or the miss leg's
    ``AccessResult``).

    ``served`` / ``component`` / ... are source expressions.  ``hit``
    is static: a hit is never a primary miss, and a miss always is.
    """
    instr, oa, ona, of = flags
    pad = " " * indent
    lines = []
    if oa or ona:
        lines += [
            pad + "event = AccessEvent(",
            pad + "    cycle=issue, pc=pc, mpc=d_mpc[index],",
            pad + f"    addr=addr, line=line, is_load={is_load},",
            pad + f"    hit={hit},",
            pad + f"    primary_miss={not hit},",
            pad + f"    latency={latency}, value={value}, dst={dst},",
            pad + f"    served_by_prefetch={served},",
            pad + f"    serving_component={component})",
            pad + f"if {served}:",
            pad + f"    on_prefetch_hit(line, {level})",
        ]
        if oa:
            lines.append(pad + "observe_access(event)")
        if ona:
            lines += [
                pad + "requests = on_access(event)",
                pad + "if requests:",
                pad + "    for request in requests:",
                pad + "        issued = hier_prefetch(",
                pad + "            request.line, issue,",
                pad + "            target_level=request.target_level,",
                pad + "            component=request.component,",
                pad + "            pc=pc)",
            ]
            if of:
                lines += [
                    pad + "        if issued:",
                    pad + "            on_fill(request.line,",
                    pad + "                    request.target_level,",
                    pad + "                    prefetched=True)",
                ]
    else:
        lines += [
            pad + f"if {served}:",
            pad + f"    on_prefetch_hit(line, {level})",
        ]
    if of and not hit:
        lines.append(pad + "on_fill(line, 1)")
    return lines


def _shadow_lines(indent: int, want_hit: bool) -> list[str]:
    """Inlined ``ShadowTagStore.access`` (demand accesses always update
    the alternative-reality tags).  The hit flag only matters on the
    miss path, where it decides pollution attribution."""
    pad = " " * indent
    if want_hit:
        return [
            pad + "sh_set = sh_sets[line & sh_mask]",
            pad + "if line in sh_set:",
            pad + "    del sh_set[line]",
            pad + "    sh_hit = True",
            pad + "else:",
            pad + "    sh_hit = False",
            pad + "    if len(sh_set) >= sh_ways:",
            pad + "        del sh_set[next(iter(sh_set))]",
            pad + "sh_set[line] = None",
        ]
    return [
        pad + "sh_set = sh_sets[line & sh_mask]",
        pad + "if line in sh_set:",
        pad + "    del sh_set[line]",
        pad + "elif len(sh_set) >= sh_ways:",
        pad + "    del sh_set[next(iter(sh_set))]",
        pad + "sh_set[line] = None",
    ]


def _memory_lines(flags: tuple, is_load: bool) -> list[str]:
    """The memory-access portion of a LOAD/STORE dispatch arm, with the
    L1 hit leg of ``demand_access`` inlined."""
    instr, oa, ona, of = flags
    hooks = oa or ona
    lines = [
        "            pc = c_pc[index]",
    ]
    if hooks:
        lines.append("            addr = c_addr[index]")
    lines += [
        "            line = d_line[index]",
        "            l1_acc += 1",
        "            cl = l1_sets[line & l1_mask].get(line)",
        "            if cl is not None:",
        "                uc = l1d._use_counter + 1",
        "                l1d._use_counter = uc",
        "                cl.last_use = uc",
    ]
    if not is_load:
        lines.append("                cl.dirty = True")
    lines += [
        "                first_use = cl.prefetched and not cl.used",
        "                if first_use:",
        "                    cl.used = True",
        *_shadow_lines(16, want_hit=False),
        "                l1_hits += 1",
        "                ready = cl.fill_time",
        "                if first_use:",
        "                    l1_useful += 1",
        "                    if ready > issue:",
        "                        l1_late += 1",
        "                    log_append(('on_useful', line, cl.component, 1))",
        "                elif ready > issue and not cl.prefetched:",
        "                    l1_merges += 1",
    ]
    if is_load:
        lines += [
            "                if ready < issue:",
            "                    ready = issue",
            "                complete = ready + l1_latency",
            "                latency = complete - issue",
            "                loads += 1",
            "                load_latency_total += latency",
        ]
    else:
        lines.append("                stores += 1")
    lines += _hook_lines(
        flags, is_load, 16, hit=True,
        served="first_use", component="cl.component", level="1",
        latency="latency" if is_load else "0",
        value="c_value[index]" if is_load else "0",
        dst="c_dst[index]" if is_load else "-1",
    )
    lines += [
        "            else:",
        *_shadow_lines(16, want_hit=True),
        f"                result = demand_miss(line, issue, "
        f"{'False' if is_load else 'True'}, sh_hit, pc)",
    ]
    if is_load:
        lines += [
            "                complete = result.ready_time",
            "                latency = complete - issue",
            "                loads += 1",
            "                load_latency_total += latency",
            "                miss_pcs[pc] += 1",
            "                miss_latency_by_pc[pc] += latency",
        ]
    else:
        lines.append("                stores += 1")
    lines += _hook_lines(
        flags, is_load, 16, hit=False,
        served="result.served_by_prefetch",
        component="result.prefetch_component", level="result.hit_level",
        latency="latency" if is_load else "0",
        value="c_value[index]" if is_load else "0",
        dst="c_dst[index]" if is_load else "-1",
    )
    if is_load:
        lines.append("            reg_ready[c_dst[index]] = complete")
    else:
        lines.append("            complete = issue + 1")
    return lines


def kernel_source(flags: tuple, shape: tuple = ()) -> str:
    """Generate the ``run_bursts(core, burst, feeds)`` source for one
    flag tuple and instruction-feed shape (:func:`feed_shape`).

    The generator's locals survive across bursts; after every ``burst``
    retired instructions it writes ``core._fetch_cycle`` back (the
    multicore scheduler orders cores by it) and yields ``True``.
    Deferred counters are flushed once, when the trace runs out.  A
    feed on the row set walks a cursor over the set's positions from
    the core's start index.
    """
    _, oa, ona, of = flags
    head = [
        "def run_bursts(core, burst, feeds):",
        "    trace = core.trace",
        "    stats = core.stats",
        "    index = core._index",
        "    n = core._num_records",
        "    if index >= n:",
        "        return stats",
        "    width = core._width",
        "    alu_latency = core._alu_latency",
        "    branch_penalty = core._branch_penalty",
        "    rob_size = core._rob_size",
        "    commit_ring = core._commit_ring",
        "    reg_ready = core._reg_ready",
        "    fetch_cycle = core._fetch_cycle",
        "    fetch_slot = core._fetch_slot",
        "    last_commit = core._last_commit_time",
        "    commits_at_time = core._commits_at_time",
        # Only the columns the body reads: an array-backed trace
        # materializes each list column on its first touch.
        "    c_pc = trace.pc",
        "    c_dst = trace.dst",
        "    c_src1 = trace.src1",
        "    c_src2 = trace.src2",
        "    d_line, d_mpc, d_disp, d_bp = trace.derived_columns()",
        "    miss_pcs = stats.miss_pcs",
        "    miss_latency_by_pc = stats.miss_latency_by_pc",
        "    on_prefetch_hit = core.prefetcher.on_prefetch_hit",
        "    loads = 0",
        "    stores = 0",
        "    branches = 0",
        "    mispredicts = 0",
        "    load_latency_total = 0",
        "    start_index = index",
        "    stop = index + burst",
        "    hierarchy = core.hierarchy",
        "    l1d = hierarchy.l1d",
        "    l1_stats = l1d.stats",
        "    l1_sets = l1d._sets",
        "    l1_mask = l1d._set_mask",
        "    l1_latency = l1d.hit_latency",
        "    shadow = hierarchy.shadow_l1",
        "    sh_sets = shadow._sets",
        "    sh_mask = shadow._set_mask",
        "    sh_ways = shadow.ways",
        "    demand_miss = hierarchy._demand_miss",
        "    log_append = hierarchy.credit_log.append",
        "    l1_acc = 0",
        "    l1_hits = 0",
        "    l1_useful = 0",
        "    l1_late = 0",
        "    l1_merges = 0",
    ]
    head += feed_head(shape, "    ")
    rows = next((rows for rows, _ in shape if rows), None)
    if rows:
        head += [
            f"    fed_rows, fed_views = trace.feed_records({rows!r})",
            "    fed_from = bisect_left(fed_rows, index)",
            "    view_next = iter(fed_views[fed_from:]).__next__",
            "    row_next = iter(fed_rows[fed_from:] + [-1]).__next__",
            "    next_row = row_next()",
        ]
    if oa or ona:
        head += [
            "    c_addr = trace.addr",
            "    c_value = trace.value",
        ]
    if oa:
        head.append("    observe_access = core._observe_access")
    if ona:
        head += [
            "    on_access = core._on_access",
            "    hier_prefetch = core.hierarchy.prefetch",
        ]
    if of:
        head.append("    on_fill = core._on_fill")

    body = [
        "    while index < n:",
        "        if fetch_slot >= width:",
        "            fetch_cycle += 1",
        "            fetch_slot = 0",
        "        fetch_slot += 1",
        "        rob_slot = index % rob_size",
        "        rob_free = commit_ring[rob_slot]",
        "        if rob_free > fetch_cycle:",
        "            dispatch = rob_free",
        "            fetch_cycle = rob_free",
        "            fetch_slot = 1",
        "        else:",
        "            dispatch = fetch_cycle",
    ]
    body += feed_lines(shape, "        ", "index == next_row",
                       ["rec = view_next()", "next_row = row_next()"],
                       "index")
    body += [
        "        disp = d_disp[index]",
        "        if disp == 2:  # ALU",
        "            issue = dispatch",
        "            src = c_src1[index]",
        "            if src >= 0 and reg_ready[src] > issue:",
        "                issue = reg_ready[src]",
        "            src = c_src2[index]",
        "            if src >= 0 and reg_ready[src] > issue:",
        "                issue = reg_ready[src]",
        "            complete = issue + alu_latency",
        "            dst = c_dst[index]",
        "            if dst >= 0:",
        "                reg_ready[dst] = complete",
        "        elif disp == 0:  # LOAD",
        "            issue = dispatch",
        "            src = c_src1[index]",
        "            if src >= 0 and reg_ready[src] > issue:",
        "                issue = reg_ready[src]",
        *_memory_lines(flags, is_load=True),
        "        elif disp == 3:  # conditional branch",
        "            issue = dispatch",
        "            src = c_src1[index]",
        "            if reg_ready[src] > issue:",
        "                issue = reg_ready[src]",
        "            src = c_src2[index]",
        "            if src >= 0 and reg_ready[src] > issue:",
        "                issue = reg_ready[src]",
        "            complete = issue + 1",
        "            branches += 1",
        "            if d_bp[index]:",
        "                mispredicts += 1",
        "                fetch_cycle = complete + branch_penalty",
        "                fetch_slot = 0",
        "        elif disp == 1:  # STORE",
        "            issue = dispatch",
        "            src = c_src1[index]",
        "            if src >= 0 and reg_ready[src] > issue:",
        "                issue = reg_ready[src]",
        "            data = c_src2[index]",
        "            if data >= 0 and reg_ready[data] > issue:",
        "                issue = reg_ready[data]",
        *_memory_lines(flags, is_load=False),
        "        elif disp == 4:  # unconditional branch",
        "            issue = dispatch",
        "            src = c_src2[index]",
        "            if src >= 0 and reg_ready[src] > issue:",
        "                issue = reg_ready[src]",
        "            complete = issue + 1",
        "            branches += 1",
        "        else:  # CALL / RET / OTHER: BTB/RAS-predicted, 1 cycle",
        "            complete = dispatch + 1",
        "        if complete > last_commit:",
        "            last_commit = complete",
        "            commits_at_time = 1",
        "        else:",
        "            commits_at_time += 1",
        "            if commits_at_time > width:",
        "                last_commit += 1",
        "                commits_at_time = 1",
        "        commit_ring[rob_slot] = last_commit",
        "        index += 1",
        "        if index == stop:",
        "            core._fetch_cycle = fetch_cycle",
        "            yield True",
        "            stop = index + burst",
    ]

    tail = [
        "    core._index = index",
        "    core._fetch_cycle = fetch_cycle",
        "    core._fetch_slot = fetch_slot",
        "    core._last_commit_time = last_commit",
        "    core._commits_at_time = commits_at_time",
        "    stats.loads += loads",
        "    stats.stores += stores",
        "    stats.branches += branches",
        "    stats.mispredicts += mispredicts",
        "    stats.load_latency_total += load_latency_total",
        "    l1_stats.demand_accesses += l1_acc",
        "    l1_stats.demand_hits += l1_hits",
        "    l1_stats.useful_prefetches += l1_useful",
        "    l1_stats.late_prefetch_hits += l1_late",
        "    l1_stats.mshr_merges += l1_merges",
        "    stats.instructions += index - start_index",
        "    stats.cycles = last_commit",
        "    return stats",
    ]
    return "\n".join(head + body + tail) + "\n"
