"""Specialized replay kernels (docs/performance.md, "Replay kernels").

The contract under test is bit-identity: a specialized kernel is a
partial evaluation of the generic step loop, so it may change wall
clock but never a number.  These tests pin that registry-wide against
the ``REPRO_KERNEL=generic`` escape hatch, pin workload-affine cell
fusion at ``--jobs 4`` against serial ``run_jobs``, check the derived
trace columns against fresh derivation, and follow the kernel-variant
attribution through results, manifests, and the fault journal.

A single-core cell runs the segmented tier or the generic loop,
nothing else.  The segmented tier gets its own sections, for hook-free
(``none``) and hooked cells alike: tier selection, every case that
sends a cell to the generic loop, degenerate segmentations, hook
islands at the trace boundaries, back-to-back islands, the all-event
trace, kernel-compile and plan-build counting, and identity under
injected cache corruption.  Every path records the same credit log
(the Figs. 13-14 input): the logs, and the credit buckets a tracker
replays from them, are pinned registry-wide.

Multicore mixes run their 32-instruction bursts on the segmented
tier too, every core resuming one generator over a shared virtual
L3/DRAM, or every core on the generic ``step()`` loop when the tier
declines any of them; their per-core results are pinned against the
generic loop, including the burst size itself and both drop policies.
A one-core mix (:func:`_one_core_mix`) resumes a single trace's generator a
burst at a time over a single core's hierarchy, which pins the
resumable replay against the same cell run in one burst.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest

from conftest import build_aop_trace, build_chain_trace, build_strided_trace
from repro.analysis.credit import CreditTracker, replay
from repro.core.base import Prefetcher
from repro.core.composite import instruction_feeds, make_shunt, make_tpc
from repro.core.t2 import T2Prefetcher
from repro.engine import multicore, segmented
from repro.engine.branch import StaticPredictor
from repro.engine.config import EXPERIMENT_CONFIG
from repro.engine.kernel import GENERIC, KERNEL_ENV, kernel_flags, variant_name
from repro.engine.multicore import simulate_multicore
from repro.engine.ooo import OoOCore
from repro.engine.system import simulate
from repro.experiments import ablations, drop_policy
from repro.faults.faultlog import faults_since
from repro.isa import Assembler, Machine
from repro.isa.trace import (
    BACKWARD_TAKEN,
    DERIVED_FIELDS,
    DISP_ALU,
    DISP_BR_UNCOND,
    DISP_LOAD,
    DISP_OTHER,
    DISP_STORE,
    LINE_SHIFT,
    TRACE_FIELDS,
    CompiledTrace,
    Trace,
    compile_trace,
)
from repro.memory.dram import DropPolicy
from repro.memory.hierarchy import Hierarchy
from repro.obs import metrics
from repro.parallel import _fusion_units, run_jobs, shutdown_pool
from repro.prefetcher_registry import available_prefetchers, make_prefetcher
from repro.telemetry import Telemetry
from repro.identity import mix_identity


@pytest.fixture(scope="module")
def strided():
    return compile_trace(build_strided_trace(elements=1500, name="k-strided"))


@pytest.fixture(scope="module")
def chain():
    return compile_trace(build_chain_trace(nodes=1200, name="k-chain"))


@pytest.fixture(scope="module")
def rotate():
    """``starbench.rotate``: the drop-policy mixes' C1-heavy app."""
    from repro.workloads import get_workload

    return get_workload("starbench.rotate").trace()


def _identity(result) -> tuple:
    """Everything a simulation reports, for exact comparison."""
    return (
        result.core,
        result.l1d,
        result.l2,
        result.l3,
        result.dram,
        result.prefetch,
        result.miss_lines_l1,
        result.miss_lines_l2,
        result.attempted_prefetch_lines,
        result.attempted_by_component,
        result.pollution_misses_l1,
        result.pollution_misses_l2,
    )


def _one_core_mix(trace, prefetcher, config=None):
    """``trace`` as a one-core mix: the segmented generator resumed a
    burst at a time over a hierarchy (one core's L3 share, its own
    DRAM) that is a single core's."""
    (result,) = simulate_multicore([trace], [prefetcher], config).per_core
    return result


# ----------------------------------------------------------------------
# Registry-wide bit identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", available_prefetchers())
def test_specialized_matches_generic_registry_wide(name, strided, chain,
                                                   monkeypatch):
    for trace in (strided, chain):
        fast = simulate(trace, make_prefetcher(name))
        monkeypatch.setenv(KERNEL_ENV, GENERIC)
        slow = simulate(trace, make_prefetcher(name))
        monkeypatch.delenv(KERNEL_ENV)
        # Leanmem cells, hook-free or hooked, climb to the segmented
        # kernel.
        assert fast.kernel.startswith("segmented+"), name
        assert slow.kernel == GENERIC
        assert _identity(fast) == _identity(slow), (name, trace.name)


def test_specialized_matches_generic_with_telemetry(strided):
    """A telemetry hub sends the cell to the generic loop, which
    reproduces the specialized plain cell exactly."""
    fast = simulate(strided, make_prefetcher("tpc"))
    slow = simulate(strided, make_prefetcher("tpc"), telemetry=Telemetry())
    assert fast.kernel.startswith("segmented+")
    assert slow.kernel == GENERIC
    assert _identity(fast) == _identity(slow)


# ----------------------------------------------------------------------
# Kernel selection and the escape hatch
# ----------------------------------------------------------------------
def test_object_trace_falls_back_to_generic():
    trace = build_strided_trace(elements=300, name="k-object")
    result = simulate(trace)
    assert result.kernel == GENERIC


def test_env_escape_hatch_disables_specialization(strided, monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    result = simulate(strided)
    assert result.kernel == GENERIC


def test_kernel_flags_none_under_escape_hatch(strided, monkeypatch):
    class _Probe:
        trace = strided
        _observe_instruction = None
        _observe_access = None
        _on_access = None
        _on_fill = None
        _sampler = None
        _branch_predictor = StaticPredictor()

        class hierarchy:
            tracker = None
            telemetry = None

    assert kernel_flags(_Probe()) is not None
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    assert kernel_flags(_Probe()) is None


def test_variant_name_encodes_flags():
    assert variant_name((False,) * 4) == "segmented+leanmem+staticbp"
    name = variant_name((True,) * 4)
    assert name == "segmented+instr+observe+issue+fill+leanmem+staticbp"


def test_dynamic_branch_predictor_runs_the_generic_loop(strided):
    """No kernel specializes a dynamic predictor: a ``gshare`` cell
    runs the generic loop."""
    config = dataclasses.replace(
        EXPERIMENT_CONFIG, core=dataclasses.replace(
            EXPERIMENT_CONFIG.core, branch_predictor="gshare"))
    result = simulate(strided, make_prefetcher("tpc"), config)
    assert result.kernel == GENERIC


def test_kernel_cells_leave_record_views_unbuilt():
    """Only the generic loop reads a compiled trace's record views, so
    a hook-free specialized cell never materializes them."""
    trace = compile_trace(build_strided_trace(elements=200,
                                              name="k-records"))
    assert simulate(trace).kernel != GENERIC
    assert trace._records is None


# ----------------------------------------------------------------------
# Derived columns
# ----------------------------------------------------------------------
def test_derived_columns_match_primary_columns(strided):
    line, mpc, disp, bp_miss = strided.derived_columns()
    assert list(line) == [a >> LINE_SHIFT for a in strided.addr]
    assert list(mpc) == [p ^ r for p, r in zip(strided.pc, strided.ras_top)]
    assert len(disp) == len(bp_miss) == len(strided)


def test_derived_columns_round_trip(chain):
    original = chain.derived_columns()
    blobs = chain.column_bytes()
    derived = chain.derived_bytes()
    before = metrics.mark()

    restored = CompiledTrace.from_column_bytes(chain.name, blobs,
                                               chain.memory, derived=derived)
    assert metrics.since(before)["trace_cache.derived_hits"] == 1
    after = metrics.mark()
    # Restored from the cache blobs: no derivation pass happened — the
    # arrays arrive pre-built — yet the list views materialized from
    # them are exactly what a fresh derivation produces.
    assert restored._derived_arrays is not None
    assert restored.derived_columns() == original
    assert metrics.since(after)["trace_cache.derived_builds"] == 0

    rebuilt = CompiledTrace.from_column_bytes(chain.name, blobs, chain.memory)
    assert rebuilt._derived is None and rebuilt._derived_arrays is None
    assert rebuilt.derived_columns() == original
    assert set(DERIVED_FIELDS) == set(derived)


# ----------------------------------------------------------------------
# Workload-affine cell fusion
# ----------------------------------------------------------------------
def test_fusion_units_group_by_workload():
    normalized = [("a", "s1", ""), ("b", "s1", ""), ("a", "s2", ""),
                  ("b", "s2", "")]
    # Fine-grained workload-affine units: ceil(4 / (1 * 4)) = 1 cell
    # each, grouped by workload.
    units = _fusion_units([0, 1, 2, 3], normalized, 1)
    assert units == [(0,), (2,), (1,), (3,)]
    # Sixteen interleaved cells at one worker: ceil(16 / 4) = 4 cells
    # per unit, each unit drawn from a single workload.
    normalized = [("ab"[i % 2], f"s{i}", "") for i in range(16)]
    units = _fusion_units(list(range(16)), normalized, 1)
    assert units == [(0, 2, 4, 6), (8, 10, 12, 14),
                     (1, 3, 5, 7), (9, 11, 13, 15)]


def test_fusion_identity_at_jobs_4():
    """Fused units through the pool reproduce serial ``run_jobs``."""
    matrix = [(w, s) for w in ("spec.libquantum", "spec.astar")
              for s in ("none", "bop")]
    serial = run_jobs(matrix, EXPERIMENT_CONFIG, 1)
    try:
        fused = run_jobs(matrix, EXPERIMENT_CONFIG, 4)
    finally:
        shutdown_pool()
    assert len(fused) == len(serial) == len(matrix)
    for cell, a, b in zip(matrix, fused, serial):
        assert _identity(a) == _identity(b), cell
        assert a.kernel == b.kernel, cell
        assert a.kernel.startswith("segmented+"), cell


# ----------------------------------------------------------------------
# Segmented replay tier, hook-free ``none`` cells (docs/performance.md,
# "Segmented replay tier")
# ----------------------------------------------------------------------
HOOK_FREE_VARIANT = "segmented+leanmem+staticbp"


def test_batch_matches_scalar_and_generic(strided, chain, monkeypatch):
    """Hook-free cells climb to the segmented tier with every hook
    branch absent, in one burst or resumed a burst at a time as a
    one-core mix; all three runs are bit-identical."""
    for trace in (strided, chain):
        seg = simulate(trace, make_prefetcher("none"))
        mixed = _one_core_mix(trace, make_prefetcher("none"))
        monkeypatch.setenv(KERNEL_ENV, GENERIC)
        generic = simulate(trace, make_prefetcher("none"))
        monkeypatch.delenv(KERNEL_ENV)
        assert seg.kernel == HOOK_FREE_VARIANT, trace.name
        assert mixed.kernel == HOOK_FREE_VARIANT
        assert generic.kernel == GENERIC
        assert _identity(seg) == _identity(mixed), trace.name
        assert _identity(seg) == _identity(generic), trace.name


def test_batch_steps_aside_for_sampler_with_identical_windows(strided,
                                                              monkeypatch):
    """A TimeSeriesSampler is a live hook: the segmented tier must
    yield to the generic loop, which reproduces the segmented plain
    cell; the sampled windows do not depend on ``REPRO_KERNEL``."""
    from repro.telemetry.sampler import TimeSeriesSampler

    plain = simulate(strided, make_prefetcher("none"))
    fast_sampler = TimeSeriesSampler(interval=256)
    fast = simulate(strided, make_prefetcher("none"),
                    telemetry=Telemetry(sampler=fast_sampler))
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    slow_sampler = TimeSeriesSampler(interval=256)
    slow = simulate(strided, make_prefetcher("none"),
                    telemetry=Telemetry(sampler=slow_sampler))
    monkeypatch.delenv(KERNEL_ENV)
    assert plain.kernel == HOOK_FREE_VARIANT
    assert fast.kernel == slow.kernel == GENERIC
    assert _identity(fast) == _identity(plain)
    assert len(fast_sampler.samples) > 0
    assert fast_sampler.samples == slow_sampler.samples


def _compile_program(name, build, max_instructions=50_000):
    asm = Assembler(name=name)
    build(asm)
    asm.halt()
    return compile_trace(Machine(max_instructions=max_instructions)
                         .run(asm.assemble()))


def _all_alu(asm):
    asm.movi("r1", 7)
    for _ in range(40):
        asm.add("r2", "r2", "r1")


def _all_memory(asm):
    asm.movi("r1", 0x40000)
    for i in range(64):
        asm.load("r2", "r1", 8 * i)


def _tiny(asm):
    asm.movi("r1", 0x40000)
    asm.load("r2", "r1", 0)


EDGE_CASES = {
    "alu-only": _all_alu,          # no events at all: one long stretch
    "mem-only": _all_memory,       # every instruction an event
    "tiny": _tiny,                 # trace shorter than any stretch
}


@pytest.mark.parametrize("case,build", list(EDGE_CASES.items()))
def test_batch_segment_edge_cases(case, build, monkeypatch):
    """Degenerate segmentations of a hook-free cell — an event-free
    trace (empty event column), back-to-back events (empty stretches),
    and a trace shorter than one stretch — replay on the segmented tier
    bit-identically in one burst, as a one-core mix and on the generic
    loop."""
    trace = _compile_program(f"k-seg-{case}", build)
    events = trace.segment_events()
    if case == "alu-only":
        assert len(events) == 0
    elif case == "mem-only":
        assert len(events) == 64  # one per load, none for movi/halt
    auto = simulate(trace, make_prefetcher("none"))
    mixed = _one_core_mix(trace, make_prefetcher("none"))
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    generic = simulate(trace, make_prefetcher("none"))
    monkeypatch.delenv(KERNEL_ENV)
    assert auto.kernel == HOOK_FREE_VARIANT, case
    assert _identity(auto) == _identity(mixed) == _identity(generic), case


def test_batch_identity_under_chaos_corrupt_and_resume(tmp_path):
    """A chaos-corrupted cache write under a hook-free segmented cell
    is a miss on re-read; the resumed runner re-simulates once and
    reproduces the reference figures exactly."""
    from repro.experiments.runner import ExperimentRunner, simulate_spec
    from repro.faults import chaos

    app = "spec.libquantum"
    cache = str(tmp_path / "cache")
    journal = str(tmp_path / "journal")
    reference = simulate_spec(app, "none", "", EXPERIMENT_CONFIG)
    assert reference.kernel == HOOK_FREE_VARIANT

    before = metrics.mark()
    chaos.set_chaos(chaos.parse_spec(f"corrupt=result:{app}/none"))
    try:
        writer = ExperimentRunner(cache_dir=cache, journal_dir=journal)
        first = writer.run(app, "none")
    finally:
        chaos.set_chaos(None)
    resumed = ExperimentRunner(cache_dir=cache, journal_dir=journal)
    second = resumed.run(app, "none")
    assert _identity(first) == _identity(reference)
    assert _identity(second) == _identity(reference)
    assert resumed.counters["simulated"] == 1  # the bad entry was a miss
    assert faults_since(before)["cache_corrupt"] >= 1


# ----------------------------------------------------------------------
# Segmented replay tier, hooked cells (docs/performance.md)
# ----------------------------------------------------------------------
def _event_first(asm):
    asm.load("r2", "r1", 0)          # hook event at position 0
    for _ in range(40):
        asm.add("r3", "r3", "r2")


def _event_burst(asm):
    asm.movi("r1", 0x40000)
    for _ in range(10):
        asm.add("r3", "r3", "r1")
    for i in range(8):               # back-to-back hook events
        asm.load("r2", "r1", 8 * i)
    for _ in range(30):
        asm.add("r3", "r3", "r1")


def _event_last(asm):
    asm.movi("r1", 0x40000)
    for _ in range(40):
        asm.add("r3", "r3", "r1")
    asm.load("r2", "r1", 0)          # hook event on the final load


HOOK_EDGE_CASES = {
    "event-first": _event_first,     # island before any stretch
    "event-burst": _event_burst,     # empty stretches between islands
    "event-last": _event_last,       # island closes the trace
}


@pytest.mark.parametrize("spec", ["bop", "tpc"])
@pytest.mark.parametrize("case,build", list(HOOK_EDGE_CASES.items()))
def test_segmented_hook_position_edge_cases(case, build, spec, monkeypatch):
    """Hook islands at the trace boundaries and back-to-back replay
    bit-identically in one burst, as a one-core mix and on the generic
    loop, with live hooks."""
    trace = _compile_program(f"k-seghook-{case}", build)
    events = trace.segment_events().tolist()
    if case == "event-first":
        assert events[0] == 0
    elif case == "event-burst":
        assert any(b - a == 1 for a, b in zip(events, events[1:]))
    else:
        assert events[-1] == len(trace) - 1
    seg = simulate(trace, make_prefetcher(spec))
    mixed = _one_core_mix(trace, make_prefetcher(spec))
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    generic = simulate(trace, make_prefetcher(spec))
    monkeypatch.delenv(KERNEL_ENV)
    assert seg.kernel.startswith("segmented+"), (case, spec)
    assert mixed.kernel == seg.kernel, (case, spec)
    assert _identity(seg) == _identity(mixed), (case, spec)
    assert _identity(seg) == _identity(generic), (case, spec)


def test_segmented_all_event_trace_degrades_to_scalar(monkeypatch):
    """A trace whose every instruction is a hook event has no stretch
    left to vectorize, and nothing to degrade to: it replays on the
    segmented tier as islands only, bit-identically to the generic
    loop."""
    trace = _compile_program("k-seg-dense", _all_memory)
    assert len(trace.segment_events()) / len(trace) > 0.95
    fast = simulate(trace, make_prefetcher("bop"))
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    generic = simulate(trace, make_prefetcher("bop"))
    monkeypatch.delenv(KERNEL_ENV)
    assert fast.kernel.startswith("segmented+")
    assert _identity(fast) == _identity(generic)


def test_plan_stretch_table_expands_to_the_rows(chain):
    """The plan's stretch table, read in the order of its stretch ids,
    spells out every instruction's effective operands; each stretch
    ends at its one event or taken backward branch (the trace's last
    stretch may end at the trace's end instead), no stretch repeats,
    and the table runs from the most frequent stretch down."""
    core = OoOCore(chain, Hierarchy(EXPERIMENT_CONFIG),
                   make_prefetcher("none"), EXPERIMENT_CONFIG.core)
    key = segmented.segment_plan_key(core)
    plan = segmented._build_segment_plan(chain, key)
    _, _, disp, bp_miss = chain.derived_columns()
    fed = set(chain.feed_records(BACKWARD_TAKEN)[0])
    alu_latency = key[2]
    expected = []
    for i, (d, s1, s2, dst) in enumerate(zip(disp, chain.src1, chain.src2,
                                             chain.dst)):
        cls = {DISP_LOAD: 1, DISP_STORE: 2}.get(
            d, 3 if bp_miss[i] else 4 if i in fed else 0)
        expected.append((
            cls,
            -1 if d == DISP_OTHER else s2 if d == DISP_BR_UNCOND else s1,
            -1 if d in (DISP_LOAD, DISP_BR_UNCOND, DISP_OTHER) else s2,
            dst if d in (DISP_ALU, DISP_LOAD) else -1,
            alu_latency if d == DISP_ALU else 1))
    rows = [row for sid in plan.stretch_ids for row in plan.table[sid]]
    assert fed and rows == expected and plan.n == len(chain)
    assert len(set(plan.table)) == len(plan.table)
    for sid, stretch in enumerate(plan.table):
        assert all(row[0] == 0 for row in stretch[:-1]), sid
        assert stretch[-1][0] or sid == plan.stretch_ids[-1], sid
    counts = Counter(plan.stretch_ids)
    frequencies = [counts[sid] for sid in range(len(plan.table))]
    assert frequencies == sorted(frequencies, reverse=True)
    assert len(plan.table) < len(plan.stretch_ids) // 100


def test_segmented_counts_kernel_compiles_apart_from_plan_builds(
        monkeypatch):
    """A kernel is compiled per stretch table, not per trace or cell:
    one trace replayed twice compiles once, and a second trace with
    another table builds its own plan and compiles its own kernel.
    Mix cores resume the kernels their traces compiled as single-core
    cells.  ``compiled.<variant>`` counts compiles, ``plan_builds``
    counts plans, and every compile adds its generated lines and
    compile microseconds."""
    monkeypatch.setattr(segmented, "_SEG_KERNELS", {})
    strided = compile_trace(build_strided_trace(elements=400,
                                                name="k-count-a"))
    chain = compile_trace(build_chain_trace(nodes=300, name="k-count-b"))
    before = metrics.mark()
    variants = {simulate(strided, make_prefetcher("bop")).kernel
                for _ in range(2)}
    once = metrics.since(before)
    simulate(chain, make_prefetcher("bop"))
    both = metrics.since(before)

    (variant,) = variants
    assert variant.startswith("segmented+")
    assert once[f"kernel.selected.{variant}"] == 2
    assert once[f"kernel.compiled.{variant}"] == 1
    assert once["kernel.plan_builds"] == 1
    assert once["kernel.generated_lines"] > 0
    assert once["kernel.compile_us"] > 0
    tables = [plan.table for trace in (strided, chain)
              for plan in trace._plans.values()]
    assert len(tables) == 2 and tables[0] != tables[1]
    assert both[f"kernel.compiled.{variant}"] == 2
    assert both["kernel.plan_builds"] == 2
    assert both["kernel.generated_lines"] > once["kernel.generated_lines"]
    mix = simulate_multicore([strided, chain],
                             [make_prefetcher("bop") for _ in range(2)])
    assert all(len(trace) > multicore.BURST for trace in (strided, chain))
    assert {core.kernel for core in mix.per_core} == {variant}
    assert metrics.since(before)[f"kernel.compiled.{variant}"] == 2


# ----------------------------------------------------------------------
# Stretch-compiled kernels: ROB wraps, burst stops and stretch shapes
# ----------------------------------------------------------------------
def test_kernel_compiles_thousands_of_stretches(monkeypatch):
    """A stretch table of 5,000 distinct stretches compiles: the arms
    are ``match`` cases, where an ``elif`` chain that long exhausts
    the compiler's recursion depth."""
    monkeypatch.setattr(segmented, "_SEG_KERNELS", {})
    table = tuple(((0, i % 32, -1, (i + 1) % 32, 1 + i // 32),)
                  for i in range(5000))
    assert callable(segmented._segment_kernel(False, False, False, False,
                                              (), table))


def _sized(rows):
    """A program whose trace is exactly ``rows`` rows: loads and adds
    in a 1:3 mix, so stretches and burst stops fall at every offset."""
    def build(asm):
        asm.movi("r1", 0x40000)
        for i in range(rows - 1):
            if i % 4 == 3:
                asm.load("r2", "r1", 8 * i)
            else:
                asm.add("r3", "r3", "r2")
    return build


def _long_register_run(asm):
    """One register-only stretch of 400 rows, longer than any ROB the
    tests configure, between two loads."""
    asm.movi("r1", 0x40000)
    asm.load("r2", "r1", 0)
    for i in range(400):
        asm.add(f"r{3 + i % 5}", f"r{3 + (i + 1) % 5}", "r2")
    asm.load("r2", "r1", 64)


def _single_row(asm):
    asm.movi("r1", 7)


def _stretch_traces() -> list:
    from repro.workloads.fuzz import fuzz_workload

    traces = [_compile_program(f"k-rows-{rows}", _sized(rows))
              for rows in (64, 65)]
    traces += [_compile_program(f"k-stretch-{case}", build)
               for case, build in (("long", _long_register_run),
                                   ("single", _single_row),
                                   ("events", _all_memory),
                                   ("event-free", _all_alu))]
    traces.append(fuzz_workload(20).trace())
    return traces


@pytest.fixture(scope="module")
def stretch_traces():
    traces = _stretch_traces()
    assert [len(trace) for trace in traces[:2]] == [64, 65]
    assert len(traces[3]) == 1
    assert len(traces[4].segment_events()) == len(traces[4]) - 1
    assert len(traces[5].segment_events()) == 0
    return traces


def _with_rob(rob):
    if rob is None:
        return EXPERIMENT_CONFIG
    return dataclasses.replace(
        EXPERIMENT_CONFIG,
        core=dataclasses.replace(EXPERIMENT_CONFIG.core, rob_entries=rob))


@pytest.mark.parametrize("spec", ["none", "bop", "tpc"])
@pytest.mark.parametrize("rob", [None, 100, 7])
def test_stretch_kernels_match_generic(rob, spec, stretch_traces,
                                       monkeypatch):
    """Straight-line stretch code retires every row as the generic loop
    does, in one burst and as 4-core mixes resumed every 32 rows, for
    ROB sizes the burst does not divide (100, 7) and the default: on
    traces of exactly two bursts and one row more, a register-only
    stretch longer than the ROB, single-row, all-event and event-free
    traces, and fuzz seed 20's stretch table."""
    config = _with_rob(rob)
    long_trace = stretch_traces[2]
    core = OoOCore(long_trace, Hierarchy(config), make_prefetcher("none"),
                   config.core)
    plan = segmented._get_plan(long_trace, segmented.segment_plan_key(core))
    assert max(map(len, plan.table)) > config.core.rob_entries
    for trace in stretch_traces:
        fast, slow = _against_generic(trace, spec, monkeypatch, config)
        assert fast.kernel.startswith("segmented+"), trace.name
        assert _with_log(fast) == _with_log(slow), (trace.name, rob, spec)
    mixes = (stretch_traces[:4], stretch_traces[3:])
    for mix in mixes:
        fast, slow = _mix_against_generic(monkeypatch, mix, spec, config)
        assert all(core.kernel.startswith("segmented+")
                   for core in fast.per_core)
        assert mix_identity(fast) == mix_identity(slow), (rob, spec)


def test_segmented_identity_under_chaos_corrupt_and_resume(tmp_path):
    """A chaos-corrupted cache write under the segmented tier is a miss
    on re-read; the resumed runner re-simulates once and reproduces the
    reference figures exactly."""
    from repro.experiments.runner import ExperimentRunner, simulate_spec
    from repro.faults import chaos

    app = "spec.libquantum"
    cache = str(tmp_path / "cache")
    journal = str(tmp_path / "journal")
    reference = simulate_spec(app, "bop", "", EXPERIMENT_CONFIG)
    assert reference.kernel.startswith("segmented+")

    before = metrics.mark()
    chaos.set_chaos(chaos.parse_spec(f"corrupt=result:{app}/bop"))
    try:
        writer = ExperimentRunner(cache_dir=cache, journal_dir=journal)
        first = writer.run(app, "bop")
    finally:
        chaos.set_chaos(None)
    resumed = ExperimentRunner(cache_dir=cache, journal_dir=journal)
    second = resumed.run(app, "bop")
    assert _identity(first) == _identity(reference)
    assert _identity(second) == _identity(reference)
    assert resumed.counters["simulated"] == 1  # the bad entry was a miss
    assert faults_since(before)["cache_corrupt"] >= 1


def _against_generic(trace, spec, monkeypatch, config=None):
    fast = simulate(trace, make_prefetcher(spec), config)
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    slow = simulate(trace, make_prefetcher(spec), config)
    monkeypatch.delenv(KERNEL_ENV)
    assert slow.kernel == GENERIC
    return fast, slow


def test_same_name_and_length_traces_replay_their_own_plans(monkeypatch):
    """A plan belongs to the trace it was built from: a different trace
    that shares its name and length must not replay it."""
    first = compile_trace(build_chain_trace(nodes=3000, seed=1, name="same"))
    second = compile_trace(build_chain_trace(nodes=3000, seed=2,
                                             name="same"))
    assert len(first) == len(second)
    for spec in ("none", "bop"):
        for trace in (first, second):
            fast, slow = _against_generic(trace, spec, monkeypatch)
            assert fast.kernel.startswith("segmented+"), spec
            assert _identity(fast) == _identity(slow), spec


class _SlowerHierarchy(Hierarchy):
    """A memory model whose every demand access is 2 cycles slower."""

    def demand_access(self, addr, now, is_write=False, pc=-1):
        result = super().demand_access(addr, now, is_write, pc)
        return dataclasses.replace(result, ready_time=result.ready_time + 2)


def _run_core(trace, spec, config=EXPERIMENT_CONFIG, *, memory=Hierarchy,
              warm=0, telemetry=False, dram_telemetry=False, sampler=False):
    """One single-core run assembled by hand, for the cases ``simulate``
    cannot set up: the kernel that ran, and every figure."""
    from repro.telemetry.sampler import TimeSeriesSampler

    hierarchy = memory(config)
    core = OoOCore(trace, hierarchy, make_prefetcher(spec), config.core)
    if telemetry:
        hierarchy.telemetry = Telemetry()
    if dram_telemetry:
        hierarchy.dram.telemetry = Telemetry()
    if sampler:
        core.attach_telemetry(Telemetry(sampler=TimeSeriesSampler(256)))
    for _ in range(warm):
        core.step()
    stats = core.run()
    return core.kernel_variant, {
        "core": stats, "l1d": hierarchy.l1d.stats, "l2": hierarchy.l2.stats,
        "l3": hierarchy.l3.stats, "dram": hierarchy.dram.stats,
        "prefetch": hierarchy.prefetch_stats,
        "credit_log": hierarchy.credit_log,
    }


DECLINES = {
    "warm-core": {"warm": 100},
    "dram-telemetry": {"dram_telemetry": True},
    "sampler": {"sampler": True},
    "telemetry": {"telemetry": True},
    "gshare": {"config": dataclasses.replace(
        EXPERIMENT_CONFIG, core=dataclasses.replace(
            EXPERIMENT_CONFIG.core, branch_predictor="gshare"))},
    "object-trace": {},
    "env-generic": {},
}
"""Every case that keeps a single-core cell off the segmented tier, as
:func:`_run_core` keyword arguments."""


@pytest.mark.parametrize("case", list(DECLINES))
def test_segmented_decline_runs_generic(case, strided, monkeypatch):
    """Each declined cell runs the generic loop, and its figures equal
    an uninterrupted ``REPRO_KERNEL=generic`` run of the same cell (a
    predictor of its own makes a cell of its own)."""
    options = dict(DECLINES[case])
    config = options.pop("config", EXPERIMENT_CONFIG)
    trace = strided
    if case == "object-trace":
        trace = build_strided_trace(elements=1500, name="k-strided")
    elif case == "env-generic":
        monkeypatch.setenv(KERNEL_ENV, GENERIC)
    kernel, figures = _run_core(trace, "tpc", config, **options)
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    _, reference = _run_core(strided, "tpc", config)
    assert kernel == GENERIC, case
    assert figures == reference, case


def test_low_priority_first_cell_runs_segmented(rotate, monkeypatch):
    """A single-core cell under the Sec. V-C1 drop policy, at the
    experiment's queue capacity, replays on the segmented tier and
    equals the generic loop (whose controller evicts queued C1
    prefetches on this app)."""
    config = drop_policy._config_with(DropPolicy.LOW_PRIORITY_FIRST)
    kernel, figures = _run_core(rotate, "tpc", config)
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    _, reference = _run_core(rotate, "tpc", config)
    assert kernel.startswith("segmented+")
    assert figures == reference
    assert figures["dram"].dropped_prefetches > 0


def test_subclassed_hierarchy_runs_generic(monkeypatch):
    """A subclassed memory model runs the generic loop, which calls its
    override on every demand access; the kernels inline the stock
    hierarchy and would skip it."""
    from repro.workloads import get_workload

    trace = get_workload("spec.libquantum").trace()
    kernel, figures = _run_core(trace, "none", memory=_SlowerHierarchy)
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    _, reference = _run_core(trace, "none", memory=_SlowerHierarchy)
    assert kernel == GENERIC
    assert figures == reference
    assert figures["core"].cycles == 74_237


@pytest.mark.parametrize("spec", ["none", "bop", "tpc"])
def test_segmented_replays_non_power_of_two_dram(spec, strided, chain,
                                                 monkeypatch):
    """Channel, bank and row indices come from ``%`` and ``//`` for any
    DRAM geometry, exactly as ``Dram._map`` computes them."""
    dram = dataclasses.replace(EXPERIMENT_CONFIG.dram, channels=3,
                               banks_per_rank=6)
    config = dataclasses.replace(EXPERIMENT_CONFIG, dram=dram)
    for trace in (strided, chain):
        fast, slow = _against_generic(trace, spec, monkeypatch, config)
        assert fast.kernel.startswith("segmented+"), trace.name
        assert _identity(fast) == _identity(slow), trace.name


# ----------------------------------------------------------------------
# Credit logs (Figs. 13-14) on every tier
# ----------------------------------------------------------------------
def _tracked(trace, spec, run=simulate):
    """One tracked cell: its result and the tracker fed its log."""
    result = run(trace, make_prefetcher(spec))
    tracker = CreditTracker()
    replay(result.credit_log, tracker)
    return result, tracker


@pytest.fixture(scope="module")
def shadow_mix():
    from repro.workloads import get_workload

    return get_workload("stress.shadow_mix").trace()


@pytest.mark.parametrize("name", available_prefetchers())
def test_tracked_cells_match_scalar_and_generic_registry_wide(
        name, strided, chain, shadow_mix, monkeypatch):
    """The segmented tier records the credit log the generic loop
    records, entry for entry (pollution victims sorted by line), in one
    burst and as a one-core mix, and a tracker replays the same ordered
    buckets from each."""
    for trace in (strided, chain, shadow_mix):
        seg, seg_tracker = _tracked(trace, name)
        mixed, mixed_tracker = _tracked(trace, name, _one_core_mix)
        monkeypatch.setenv(KERNEL_ENV, GENERIC)
        generic, generic_tracker = _tracked(trace, name)
        monkeypatch.delenv(KERNEL_ENV)
        assert seg.kernel.startswith("segmented+"), (name, trace.name)
        assert mixed.kernel == seg.kernel, (name, trace.name)
        assert generic.kernel == GENERIC
        assert _identity(seg) == _identity(mixed), (name, trace.name)
        assert _identity(seg) == _identity(generic), (name, trace.name)
        assert seg.credit_log == mixed.credit_log, (name, trace.name)
        assert seg.credit_log == generic.credit_log, (name, trace.name)
        buckets = list(seg_tracker.buckets.items())
        assert buckets == list(mixed_tracker.buckets.items())
        assert buckets == list(generic_tracker.buckets.items())


@pytest.mark.parametrize("setup", ["telemetry", "sampler"])
def test_tracked_cell_off_the_segmented_tier_runs_generic(setup, strided,
                                                          monkeypatch):
    """Telemetry or a sampler keep a tracked cell on the generic loop,
    which records the segmented tier's credit log, so the tracker sees
    the same credit."""
    from repro.engine.ooo import OoOCore
    from repro.memory.hierarchy import Hierarchy
    from repro.telemetry.sampler import TimeSeriesSampler

    reference, reference_tracker = _tracked(strided, "tpc")
    assert reference.kernel.startswith("segmented+")
    tracker = CreditTracker()
    if setup == "telemetry":
        result = simulate(strided, make_prefetcher("tpc"), tracker=tracker,
                          telemetry=Telemetry())
        kernel, log = result.kernel, result.credit_log
    else:
        # A sampler on the core, no telemetry hub on the hierarchy.
        hierarchy = Hierarchy(EXPERIMENT_CONFIG)
        core = OoOCore(strided, hierarchy, make_prefetcher("tpc"),
                       EXPERIMENT_CONFIG.core)
        core.attach_telemetry(Telemetry(sampler=TimeSeriesSampler(256)))
        core.run()
        kernel, log = core.kernel_variant, hierarchy.credit_log
        replay(log, tracker)
    assert kernel == GENERIC, setup
    assert list(log) == list(reference.credit_log), setup
    assert (list(tracker.buckets.items())
            == list(reference_tracker.buckets.items())), setup


# ----------------------------------------------------------------------
# Multicore bursts on the segmented tier (docs/performance.md, "Replay
# kernels")
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mixes(strided, chain):
    """Two 4-core mixes of compiled traces: one with a trace object on
    two cores, one with an empty trace; the chain's length is not a
    multiple of the burst."""
    aop = compile_trace(build_aop_trace(count=700, name="k-aop"))
    empty = compile_trace(Trace(name="k-empty", records=[]))
    assert len(chain) % 32 and len(empty) == 0
    return {"shared": [strided, chain, strided, aop],
            "empty": [aop, empty, chain, strided]}


def _run_mix(traces, spec, config=None, trackers=None):
    return simulate_multicore(traces, [make_prefetcher(spec) for _ in traces],
                              config, trackers)


def _mix_against_generic(monkeypatch, traces, spec, config=None):
    fast = _run_mix(traces, spec, config)
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    slow = _run_mix(traces, spec, config)
    monkeypatch.delenv(KERNEL_ENV)
    assert [core.kernel for core in slow.per_core] == [GENERIC] * len(traces)
    return fast, slow


@pytest.mark.parametrize("spec", available_prefetchers())
@pytest.mark.parametrize("mix", ["shared", "empty"])
def test_burst_kernel_matches_generic_registry_wide(mix, spec, mixes,
                                                    monkeypatch):
    fast, slow = _mix_against_generic(monkeypatch, mixes[mix], spec)
    for core in fast.per_core:
        assert core.kernel.startswith("segmented+"), (mix, spec)
        assert core.kernel.endswith("+leanmem+staticbp"), (mix, spec)
    assert mix_identity(fast) == mix_identity(slow), (mix, spec)
    if spec == "tpc":
        assert any(core.attempted_by_component for core in fast.per_core)


@pytest.mark.parametrize("policy", list(DropPolicy))
def test_burst_kernel_matches_generic_under_drop_policies(policy, mixes,
                                                          monkeypatch):
    config = drop_policy._config_with(policy)
    assert config.dram.queue_capacity == drop_policy.QUEUE_CAPACITY
    for spec in ("tpc", "bop"):
        fast, slow = _mix_against_generic(monkeypatch, mixes["shared"], spec,
                                          config)
        assert all(core.kernel.startswith("segmented+")
                   for core in fast.per_core), (policy, spec)
        assert mix_identity(fast) == mix_identity(slow), (policy, spec)
    assert fast.per_core[0].dram.dropped_prefetches > 0


def test_low_priority_first_mix_evicts_queued_c1_prefetches(rotate, chain,
                                                           monkeypatch):
    """A C1-heavy mix at the drop-policy experiment's queue capacity:
    the generic run's controller evicts queued C1 prefetches for
    incoming ones (``Dram._admit``'s LOW_PRIORITY_FIRST leg), and the
    segmented mix replays that leg bit-identically."""
    from repro.memory.dram import LOW_PRIORITY_COMPONENTS, Dram

    evicted = []
    admit = Dram._admit

    def counting_admit(self, channel, now, is_prefetch, component):
        # Drained as admit drains first, so the only entry an incoming
        # prefetch's admission removes is a victim.
        self._drain(channel, now)
        queue = self._queues[channel]
        before = list(queue)
        result = admit(self, channel, now, is_prefetch, component)
        if is_prefetch:
            kept = {id(entry) for entry in queue}
            evicted.extend(entry.component for entry in before
                           if id(entry) not in kept)
        return result

    config = drop_policy._config_with(DropPolicy.LOW_PRIORITY_FIRST)
    assert config.dram.queue_capacity == drop_policy.QUEUE_CAPACITY
    monkeypatch.setattr(Dram, "_admit", counting_admit)
    fast, slow = _mix_against_generic(monkeypatch,
                                      [rotate, chain, rotate, chain], "tpc",
                                      config)
    assert evicted
    assert set(evicted) <= LOW_PRIORITY_COMPONENTS
    assert all(core.kernel.startswith("segmented+")
               for core in fast.per_core)
    assert mix_identity(fast) == mix_identity(slow)


def test_burst_kernel_with_credit_trackers(mixes):
    """Trackers are fed their cores' credit logs after the mix, so a
    tracked mix runs the segmented tier and equals the untracked mix,
    logs included; each tracker ends as one fed its core's log."""
    traces = mixes["shared"]
    trackers = [CreditTracker() for _ in traces]
    tracked = _run_mix(traces, "tpc", trackers=trackers)
    untracked = _run_mix(traces, "tpc")
    assert all(core.kernel.startswith("segmented+")
               for core in tracked.per_core)
    assert mix_identity(tracked) == mix_identity(untracked)
    assert any(t.buckets for t in trackers)
    for tracker, core in zip(trackers, untracked.per_core):
        fresh = CreditTracker()
        replay(core.credit_log, fresh)
        assert list(tracker.buckets.items()) == list(fresh.buckets.items())


@pytest.mark.parametrize("spec", ["none", "bop", "tpc"])
def test_burst_kernel_edge_case_traces_match_generic(spec, monkeypatch):
    """The degenerate traces of the segmented sections, four to a mix:
    the resumed segmented generator retires each exactly as the
    generic loop does."""
    builds = {**EDGE_CASES, **HOOK_EDGE_CASES}
    traces = [_compile_program(f"k-mix-{case}", build)
              for case, build in builds.items()]
    for mix in (traces[:4], traces[2:]):
        fast, slow = _mix_against_generic(monkeypatch, mix, spec)
        assert all(core.kernel.startswith("segmented+")
                   for core in fast.per_core), spec
        assert mix_identity(fast) == mix_identity(slow), spec


def _built_list_columns(trace) -> set:
    """The list columns an array-backed trace has materialized (read
    through the slot descriptors, which never materialize one)."""
    built = set()
    for name in TRACE_FIELDS:
        try:
            getattr(CompiledTrace, name).__get__(trace)
        except AttributeError:
            continue
        built.add(name)
    return built


def test_burst_kernel_binds_only_the_columns_it_reads(chain, strided):
    """The cores of a hook-free mix on cache-loaded (array-backed)
    traces replay from the segment plan, which is built from the
    arrays: no list column materializes."""
    traces = [CompiledTrace.from_column_bytes(
                  f"{trace.name}-arrays", trace.column_bytes(),
                  trace.memory, derived=trace.derived_bytes())
              for trace in (chain, strided)]
    assert all(not _built_list_columns(trace) for trace in traces)
    result = _run_mix(traces, "none")
    assert all(core.kernel == HOOK_FREE_VARIANT
               for core in result.per_core)
    for trace in traces:
        assert not _built_list_columns(trace)
        assert trace._derived is None


def test_object_trace_mix_runs_the_step_loop():
    traces = [build_strided_trace(elements=300, name="k-mc-object"),
              build_chain_trace(nodes=200, name="k-mc-object-chain")]
    result = _run_mix(traces, "bop")
    assert [core.kernel for core in result.per_core] == [GENERIC, GENERIC]


@pytest.mark.parametrize("declined", ["object-trace", "gshare"])
def test_one_declined_core_runs_the_mix_on_the_step_loop(declined, strided,
                                                         chain,
                                                         monkeypatch):
    """The cores of a mix share one L3/DRAM representation, so one core
    the segmented tier declines — an object trace, or a ``gshare``
    predictor on the first core built — sends every core to the step
    loop, with the figures of ``REPRO_KERNEL=generic``."""
    from repro.engine import branch

    traces = [strided, chain, strided, chain]
    if declined == "object-trace":
        traces[2] = build_strided_trace(elements=1500, name="k-strided")
    else:
        make_predictor = branch.make_predictor
        built = []

        def first_core_gshare(name):
            built.append(name)
            return make_predictor("gshare" if len(built) % 4 == 1
                                  else name)

        monkeypatch.setattr(branch, "make_predictor", first_core_gshare)
    fast, slow = _mix_against_generic(monkeypatch, traces, "tpc")
    assert [core.kernel for core in fast.per_core] == [GENERIC] * 4
    assert mix_identity(fast) == mix_identity(slow)


def test_burst_size_is_semantics(mixes, monkeypatch):
    """The burst decides how the cores' accesses interleave at the
    shared L3/DRAM: halving it changes the cycles of a contended mix,
    and both replay paths read the one constant."""
    assert multicore.BURST == 32
    traces = mixes["shared"]

    def cycles():
        return [core.cycles for core in _run_mix(traces, "tpc").per_core]

    fast_32 = cycles()
    monkeypatch.setattr(multicore, "BURST", 16)
    fast_16 = cycles()
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    generic_16 = cycles()
    monkeypatch.setattr(multicore, "BURST", 32)
    generic_32 = cycles()
    assert generic_16 != generic_32
    assert fast_16 == generic_16
    assert fast_32 == generic_32


def test_array_backed_pc_and_mpc_share_int_objects(chain):
    """The ``pc`` and derived ``mpc`` lists of a cache-loaded trace
    equal ``tolist()``, and equal values are one int object, whichever
    list materializes first."""
    blobs = chain.column_bytes()
    for derived in (chain.derived_bytes(), None):
        trace = CompiledTrace.from_column_bytes(chain.name, blobs,
                                                chain.memory, derived=derived)
        if derived is not None:
            mpc = trace.derived_columns()[1]
            pc = trace.pc
        else:
            pc = trace.pc
            mpc = trace.derived_columns()[1]
        assert pc == trace.array_columns()[0].tolist()
        assert mpc == trace.derived_arrays()[1].tolist()
        assert {type(value) for value in pc + mpc} == {int}
        objects: dict[int, int] = {}
        for value in pc + mpc:
            assert objects.setdefault(value, value) is value
        assert len(objects) < len(trace) // 10


# ----------------------------------------------------------------------
# Instruction feeds: wrapper shapes, declarations, record views
# ----------------------------------------------------------------------
WRAPPER_SHAPES = {
    "shunt:tpc+spp": lambda: make_shunt([make_prefetcher("spp")]),
    "tpc+spp": lambda: make_tpc(extras=[make_prefetcher("spp")]),
    "t": lambda: make_tpc(components="t"),
    "tp": lambda: make_tpc(components="tp"),
    "order-cpt": lambda: ablations._build_variant("order-cpt"),
}
"""The report's wrapper shapes whose instruction feeds the kernels
devirtualize: a shunt, a composite with extras, the Fig. 12 prefixes
and the ablations' reversed ``[C1, P1, T2]`` composite."""


def _with_log(result) -> tuple:
    return _identity(result) + (result.credit_log,)


@pytest.mark.parametrize("shape", sorted(WRAPPER_SHAPES))
def test_wrapper_shapes_match_generic(shape, strided, chain, monkeypatch):
    build = WRAPPER_SHAPES[shape]
    for trace in (strided, chain):
        seg = simulate(trace, build())
        mixed = _one_core_mix(trace, build())
        monkeypatch.setenv(KERNEL_ENV, GENERIC)
        generic = simulate(trace, build())
        monkeypatch.delenv(KERNEL_ENV)
        assert seg.kernel.startswith("segmented+instr+"), trace.name
        assert mixed.kernel == seg.kernel, trace.name
        assert generic.kernel == GENERIC
        assert _with_log(seg) == _with_log(generic), (shape, trace.name)
        assert _with_log(mixed) == _with_log(generic), (shape, trace.name)


@pytest.mark.parametrize("shape", sorted(WRAPPER_SHAPES))
def test_wrapper_shapes_in_a_mix_match_generic(shape, mixes, monkeypatch):
    traces = mixes["shared"]
    build = WRAPPER_SHAPES[shape]
    fast = simulate_multicore(traces, [build() for _ in traces])
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    slow = simulate_multicore(traces, [build() for _ in traces])
    monkeypatch.delenv(KERNEL_ENV)
    assert all(core.kernel.startswith("segmented+instr+")
               for core in fast.per_core), shape
    assert [core.kernel for core in slow.per_core] == [GENERIC] * 4
    assert mix_identity(fast) == mix_identity(slow), shape


def test_instruction_feeds_list_leaves_in_call_order():
    """Forwarders expand to their components' hooks in the order they
    call them; T2 declares its row set, P1 its taint-unit gate."""
    def leaves(prefetcher):
        return [(type(hook.__self__).__name__, rows, gate)
                for hook, rows, gate in
                instruction_feeds(prefetcher.observe_instruction)]

    tpc = make_tpc()
    p1 = tpc.components[1]
    assert leaves(tpc) == [("T2Prefetcher", BACKWARD_TAKEN, None),
                           ("P1Prefetcher", None, p1.taint)]
    shunt = make_shunt([make_prefetcher("spp")])
    assert [leaf[:2] for leaf in leaves(shunt)] == [
        ("T2Prefetcher", BACKWARD_TAKEN), ("P1Prefetcher", None)]
    assert [leaf[0] for leaf in leaves(
        ablations._build_variant("order-cpt"))] == [
        "P1Prefetcher", "T2Prefetcher"]
    assert leaves(make_tpc(components="t")) == [
        ("T2Prefetcher", BACKWARD_TAKEN, None)]


class _CountingFeed(Prefetcher):
    """Declares nothing: every tier must feed it every instruction."""

    name = "counting"
    needs_instruction_stream = True

    def __init__(self) -> None:
        self.seen: list[int] = []

    def observe_instruction(self, record, cycle: int) -> None:
        self.seen.append(record.pc)


class _LoopsOnly(T2Prefetcher):
    """Overrides T2's hook without restating T2's declaration."""

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[int] = []

    def observe_instruction(self, record, cycle: int) -> None:
        self.seen.append(record.pc)
        super().observe_instruction(record, cycle)


@pytest.mark.parametrize("cls", [_CountingFeed, _LoopsOnly])
def test_undeclared_feed_sees_every_instruction_on_every_tier(
        cls, chain, monkeypatch):
    def fed(run=simulate) -> tuple:
        prefetcher = cls()
        result = run(chain, prefetcher)
        return result.kernel, prefetcher.seen

    seg_kernel, seg = fed()
    mixed_kernel, mixed = fed(_one_core_mix)
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    generic_kernel, generic = fed()
    monkeypatch.delenv(KERNEL_ENV)
    assert seg_kernel.startswith("segmented+instr")
    assert mixed_kernel == seg_kernel
    assert generic_kernel == GENERIC
    assert seg == mixed == generic == chain.pc


@pytest.mark.parametrize("tier", ["segmented", "mix", "generic"])
def test_kernels_feed_without_building_record_views(tier, monkeypatch):
    """A ``tpc`` cell builds a view only for the rows it feeds, so the
    segmented tier never builds ``CompiledTrace.records``, in a cell or
    as a mix core; the generic loop still does."""
    base = compile_trace(build_chain_trace(nodes=600, name="k-views"))
    trace = CompiledTrace.from_column_bytes(
        base.name, base.column_bytes(), base.memory,
        derived=base.derived_bytes())
    if tier == "mix":
        result = simulate_multicore(
            [trace] * 4, [make_prefetcher("tpc") for _ in range(4)])
        kernel = result.per_core[0].kernel
    else:
        if tier == "generic":
            monkeypatch.setenv(KERNEL_ENV, GENERIC)
        kernel = simulate(trace, make_prefetcher("tpc")).kernel
    assert kernel.split("+")[0] == {"generic": GENERIC}.get(tier,
                                                            "segmented")
    assert (trace._records is None) == (tier != "generic")
    positions, views = trace.feed_records(BACKWARD_TAKEN)
    assert 0 < len(views) < len(trace) // 4
    assert [view.pc for view in views] == [base.pc[i] for i in positions]


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
def test_manifest_carries_kernel_but_run_id_ignores_it(strided, monkeypatch):
    fast = simulate(strided, make_prefetcher("bop"), spec="bop")
    monkeypatch.setenv(KERNEL_ENV, GENERIC)
    slow = simulate(strided, make_prefetcher("bop"), spec="bop")
    monkeypatch.delenv(KERNEL_ENV)
    assert fast.manifest.kernel == fast.kernel != GENERIC
    assert slow.manifest.kernel == GENERIC
    # Bit-identical by contract, so both land in the same run directory.
    assert fast.manifest.run_id == slow.manifest.run_id
    assert fast.manifest.as_dict()["kernel"] == fast.kernel


def test_journal_records_kernel(tmp_path):
    from repro.faults.journal import MatrixJournal

    journal = MatrixJournal(tmp_path, "cfgdigest", code_version="v-test")
    journal.record_ok("spec.astar", "bop", "", seconds=1.0,
                      kernel="segmented+issue+fill+leanmem+staticbp")
    records = [json.loads(line)
               for line in journal.path.read_text().splitlines()]
    assert records[-1]["kernel"] == "segmented+issue+fill+leanmem+staticbp"


def test_events_verb_reads_journal_with_kernel(tmp_path):
    """``repro events`` on a journal file attributes cells to kernels."""
    from repro.faults.journal import MatrixJournal
    from repro.telemetry import (filter_events, normalize_record,
                                 read_jsonl, summarize)

    journal = MatrixJournal(tmp_path, "cfgdigest", code_version="v-test")
    journal.record_ok("spec.mcf", "tpc", "", attempts=2, seconds=2.5,
                      kernel="segmented+instr+observe+issue+leanmem+staticbp")
    events = [normalize_record(r) for r in read_jsonl(journal.path)]
    assert events[0]["kind"] == "cell_ok"
    assert events[0]["component"] == "tpc"
    assert events[0]["level"] == 2
    assert events[0]["dur"] == 2.5
    assert list(filter_events(events, kind="cell_ok")) == events
    summary = summarize(events)
    assert summary["by_kernel"] == {
        "segmented+instr+observe+issue+leanmem+staticbp": 1}
    # Lifecycle records pass through normalization untouched, and their
    # summaries stay kernel-free.
    lifecycle = {"kind": "issued", "cycle": 7, "line": 1, "component": "T2",
                 "level": 1, "pc": 4, "dur": 0}
    assert normalize_record(lifecycle) is lifecycle
    assert "by_kernel" not in summarize([lifecycle])
