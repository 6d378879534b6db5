"""Stress suite + adversarial fuzzer identity properties.

The stress workloads (docs/workloads.md) each pin one engine mechanism;
the fuzzer generates seeded adversarial traces through the same
registry/trace-cache machinery.  The property under test is the same
bit-identity contract ``tests/test_kernels.py`` pins on fixtures,
promoted to generated inputs: every stressor and every fuzzed seed must
produce identical figures, recorded credit logs included, across kernel
tiers (kernel-vs-generic), execution modes (fused-vs-singleton), and
trace temperatures (warm-vs-cold).
Degenerate shapes (empty program, single memory op, ALU-only) get
explicit coverage, as do the fuzzer's determinism contract, the
pollution misses ``stress.shadow_mix`` must produce, and the chaos
corrupt/resume path through a stress cell.
"""

from __future__ import annotations

import pytest

from repro.engine.compact import CreditLog, LineCounts, LineSet
from repro.engine.config import EXPERIMENT_CONFIG
from repro.engine.kernel import GENERIC, KERNEL_ENV
from repro.engine.multicore import simulate_multicore
from repro.engine.system import simulate
from repro.faults.faultlog import faults_since
from repro.isa.trace import compile_trace
from repro.obs import metrics
from repro.prefetcher_registry import available_prefetchers, make_prefetcher
from repro import identity
from repro.identity import check_mix, check_workload, identity_tuple, run_fuzz
from repro.workloads import get_suite, get_workload
from repro.workloads.fuzz import (
    DEGENERATE_EVERY,
    build_fuzz_program,
    fuzz_name,
    fuzz_simpoint,
    fuzz_workload,
)

STRESS_NAMES = (
    "stress.branch_storm", "stress.store_chain", "stress.page_stride",
    "stress.chase_ladder", "stress.shadow_mix", "stress.mshr_burst",
    "stress.hook_storm", "stress.oddgeom",
)

# One hooked and one hook-free prefetcher cover both ends of the
# segmented tier's hook specialization; "spp" adds a second hook
# shape.  The CI fuzz-identity job sweeps the whole registry — tests
# keep the matrix small enough for the tier-1 suite.
TEST_PREFETCHERS = ("none", "tpc", "spp")


# ----------------------------------------------------------------------
# Stress suite registration and shape
# ----------------------------------------------------------------------
def test_stress_suite_registered():
    suite = get_suite("stress")
    assert sorted(w.name for w in suite) == sorted(STRESS_NAMES)
    for workload in suite:
        assert workload.suite == "stress"
        assert workload.description  # each documents its mechanism


@pytest.mark.parametrize("name", STRESS_NAMES)
def test_stress_traces_nonempty_and_deterministic(name):
    workload = get_workload(name)
    trace = workload.trace()
    assert len(trace) > 0
    rebuilt = compile_trace(workload.object_trace())
    assert len(rebuilt) == len(trace)


def test_stress_shadow_mix_pollutes_through_prefetch_fills():
    """shadow_mix must produce the pollution misses it exists to pin:
    at L1 under nextline, at L2 under tpc, and at least one
    ``on_pollution`` call that shares its credit among several
    victims."""
    from repro.analysis.credit import CreditTracker

    class _VictimLog(CreditTracker):
        def __init__(self):
            super().__init__()
            self.victims = []

        def on_pollution(self, level, victims):
            self.victims.append(len(victims))
            super().on_pollution(level, victims)

    trace = get_workload("stress.shadow_mix").trace()
    trackers = {name: _VictimLog() for name in ("nextline", "tpc")}
    results = {name: simulate(trace, make_prefetcher(name), tracker=tracker)
               for name, tracker in trackers.items()}
    assert results["nextline"].pollution_misses_l1 > 0
    assert results["tpc"].pollution_misses_l2 > 0
    assert max(max(t.victims) for t in trackers.values()) >= 2
    assert simulate(trace, make_prefetcher("none")).pollution_misses_l1 == 0


def test_stress_hook_storm_is_island_dense():
    """Most of hook_storm's instructions are segment events, and every
    hooked prefetcher replays it on the island-dense segmented tier."""
    trace = get_workload("stress.hook_storm").trace()
    coverage = len(trace.segment_events()) / len(trace)
    assert coverage > 0.5
    for name in available_prefetchers():
        if name != "none":
            kernel = simulate(trace, make_prefetcher(name)).kernel
            assert kernel.startswith("segmented+"), (name, kernel)


# ----------------------------------------------------------------------
# The three invariants, over the stress suite
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", STRESS_NAMES)
def test_stress_identity_invariants(name):
    summary = check_workload(get_workload(name), TEST_PREFETCHERS)
    assert summary["violations"] == [], summary["violations"]
    assert summary["round_tripped"]  # warm leg really used the disk cache


# ----------------------------------------------------------------------
# Fuzzer determinism contract
# ----------------------------------------------------------------------
def test_fuzz_program_deterministic_per_seed():
    for seed in (0, 1, 7, DEGENERATE_EVERY, 42):
        first = build_fuzz_program(seed)
        second = build_fuzz_program(seed)
        assert first.instructions == second.instructions
        assert first.memory == second.memory
        assert fuzz_simpoint(seed) == fuzz_simpoint(seed)


def test_fuzz_seeds_differ():
    programs = {tuple(build_fuzz_program(s).instructions)
                for s in range(8)}
    assert len(programs) > 1


def test_fuzz_workload_idempotent_registration():
    first = fuzz_workload(3)
    second = fuzz_workload(3)
    assert first is second
    assert first.name == fuzz_name(3) == "fuzz.s00003"


@pytest.mark.parametrize("seed", [0, 1, DEGENERATE_EVERY, 2 * DEGENERATE_EVERY])
def test_fuzz_identity_invariants(seed):
    summary = check_workload(fuzz_workload(seed), TEST_PREFETCHERS)
    assert summary["violations"] == [], summary["violations"]


def test_cold_leg_builds_its_own_plan():
    """The warm-vs-cold invariant replays the cold-compiled trace on a
    plan built from its own columns, not on the warm trace's plan."""
    workload = fuzz_workload(1)
    builds = {}
    for cold in (False, True):
        before = metrics.mark()
        summary = check_workload(workload, ("none",), fused=False,
                                 cold=cold)
        builds[cold] = metrics.since(before)["kernel.plan_builds"]
        assert summary["violations"] == [], summary["violations"]
        assert summary["round_tripped"]  # a fresh warm trace per call
        assert all(k.startswith("segmented+") for k in summary["kernels"])
    assert builds[True] == builds[False] + 1


def test_run_fuzz_report_shape():
    report = run_fuzz(seeds=2, stress=False,
                      prefetchers=("none", "tpc"))
    assert report["ok"] is True
    assert report["violations"] == []
    assert report["workloads"] == 2
    assert report["cells"] == 4
    assert report["simulations"] > 0
    assert set(report["invariants"]) == {
        "kernel-vs-generic", "fused-vs-singleton", "warm-vs-cold"}
    assert len(report["per_workload"]) == 2
    # The mix leg: both seeds as one 2-core mix, on the segmented tier,
    # under none, tpc and tpc at both drop policies.
    assert report["mixes"] == 1
    assert sum(report["mix_kernels"].values()) == 2 * 4
    assert all(k.startswith("segmented+") for k in report["mix_kernels"])
    assert 0 <= report["mix_seconds"] <= report["seconds"]


def test_fuzz_mix_leg_runs_drop_policies():
    """tpc runs under the base config and both drop policies."""
    summary = check_mix([fuzz_workload(s) for s in range(4)], ("tpc",))
    assert summary["violations"] == [], summary["violations"]
    assert summary["simulations"] == 2 * 3
    assert summary["workload"] == "mix:" + "+".join(
        fuzz_name(s) for s in range(4))


def test_fuzz_mix_leg_reports_divergence(monkeypatch):
    """A generic run that interleaves the cores differently (a halved
    burst) is reported as a kernel-vs-generic violation on the mix."""
    from repro.engine import multicore

    simulate_mix = identity._simulate_mix

    def skewed(traces, prefetcher, config, tier):
        if tier == GENERIC:
            monkeypatch.setattr(multicore, "BURST", 16)
        try:
            return simulate_mix(traces, prefetcher, config, tier)
        finally:
            monkeypatch.setattr(multicore, "BURST", 32)

    monkeypatch.setattr(identity, "_simulate_mix", skewed)
    summary = check_mix([fuzz_workload(s) for s in range(4)], ("none",))
    (violation,) = summary["violations"]
    assert violation.workload == "mix:" + "+".join(
        fuzz_name(s) for s in range(4))
    assert violation.prefetcher == "none"
    assert violation.invariant == "kernel-vs-generic"
    assert violation.reference_kernel == GENERIC
    assert any(name.startswith("core") for name in violation.fields)


def _with_extra_entry(result) -> None:
    result.credit_log = CreditLog.of(
        [*result.credit_log, ("on_useful", 0, "skew", 1)])


def _with_extra_miss(result) -> None:
    counts = dict(result.miss_lines_l1.items())
    line = next(iter(counts))
    counts[line] += 1
    result.miss_lines_l1 = LineCounts.of(counts)


def _with_extra_attempt(result) -> None:
    lines = set(result.attempted_prefetch_lines)
    result.attempted_prefetch_lines = LineSet.of(lines | {max(lines) + 1})


def _with_extra_component_line(result) -> None:
    by_component = dict(result.attempted_by_component)
    name, lines = next(iter(by_component.items()))
    by_component[name] = LineSet.of(set(lines) | {max(lines) + 1})
    result.attempted_by_component = by_component


SKEWS = {
    "credit_log": _with_extra_entry,
    "miss_lines_l1": _with_extra_miss,
    "attempted_prefetch_lines": _with_extra_attempt,
    "attempted_by_component": _with_extra_component_line,
}
"""Field name -> one injected difference in that compact field alone."""


def test_fuzz_reports_credit_log_divergence(monkeypatch):
    """A generic run with one injected difference in a per-line record
    (one extra credit entry, one miss count, one attempted line or one
    per-component line) is reported as a kernel-vs-generic violation on
    ``tpc`` naming that field alone, since every figure still matches."""
    simulate_tier = identity._simulate_tier

    for field, skew in SKEWS.items():
        def skewed(trace, prefetcher, config, tier, skew=skew):
            result = simulate_tier(trace, prefetcher, config, tier)
            if tier == GENERIC and prefetcher == "tpc":
                skew(result)
            return result

        monkeypatch.setattr(identity, "_simulate_tier", skewed)
        summary = check_workload(fuzz_workload(1), ("none", "tpc"),
                                 fused=False, cold=False)
        (violation,) = summary["violations"]
        assert violation.workload == fuzz_name(1)
        assert violation.prefetcher == "tpc"
        assert violation.invariant == "kernel-vs-generic"
        assert violation.reference_kernel == GENERIC
        assert violation.fields == [field]


# ----------------------------------------------------------------------
# Degenerate traces: every tier must survive empty/one-op columns
# ----------------------------------------------------------------------
def _degenerate_traces():
    from repro.isa import Assembler, Machine

    shapes = {}
    for shape in ("empty", "load", "store", "alu"):
        asm = Assembler(name=f"degen-{shape}")
        if shape == "load":
            asm.movi("r1", 0x40000)
            asm.load("r2", "r1", 0)
        elif shape == "store":
            asm.movi("r1", 0x40000)
            asm.store("r1", "r1", 0)
        elif shape == "alu":
            asm.add("r2", "r2", "r2")
        asm.halt()
        machine = Machine(max_instructions=1000, truncate=True)
        shapes[shape] = compile_trace(machine.run(asm.assemble()))
    return shapes


@pytest.mark.parametrize("prefetcher", ["none", "tpc"])
def test_degenerate_traces_identical_on_every_tier(prefetcher,
                                                   monkeypatch):
    """The segmented tier in one burst, resumed a burst at a time (a
    one-core mix) and the generic loop agree on every degenerate
    shape."""
    for shape, trace in _degenerate_traces().items():
        auto = simulate(trace, make_prefetcher(prefetcher))
        (mixed,) = simulate_multicore(
            [trace], [make_prefetcher(prefetcher)]).per_core
        monkeypatch.setenv(KERNEL_ENV, GENERIC)
        generic = simulate(trace, make_prefetcher(prefetcher))
        monkeypatch.delenv(KERNEL_ENV)
        assert identity_tuple(auto) == identity_tuple(mixed), shape
        assert identity_tuple(auto) == identity_tuple(generic), shape


def test_degenerate_fuzz_seed_is_degenerate():
    # The every-13th-seed contract: a tiny program, not a fragment mix.
    program = build_fuzz_program(DEGENERATE_EVERY)
    assert len(program.instructions) <= 32


# ----------------------------------------------------------------------
# Chaos-mode resume identity through a stress cell
# ----------------------------------------------------------------------
def test_stress_identity_under_chaos_corrupt_and_resume(tmp_path):
    """A chaos-corrupted cache write under a stress cell is a miss on
    re-read; the resumed runner re-simulates once and reproduces the
    reference figures exactly (the satellite REPRO_CHAOS requirement)."""
    from repro.experiments.runner import ExperimentRunner, simulate_spec
    from repro.faults import chaos

    app = "stress.mshr_burst"
    cache = str(tmp_path / "cache")
    journal = str(tmp_path / "journal")
    reference = simulate_spec(app, "tpc", "", EXPERIMENT_CONFIG)

    before = metrics.mark()
    chaos.set_chaos(chaos.parse_spec(f"corrupt=result:{app}/tpc"))
    try:
        writer = ExperimentRunner(cache_dir=cache, journal_dir=journal)
        first = writer.run(app, "tpc")
    finally:
        chaos.set_chaos(None)
    resumed = ExperimentRunner(cache_dir=cache, journal_dir=journal)
    second = resumed.run(app, "tpc")
    assert identity_tuple(first) == identity_tuple(reference)
    assert identity_tuple(second) == identity_tuple(reference)
    assert resumed.counters["simulated"] == 1
    assert faults_since(before)["cache_corrupt"] >= 1


# ----------------------------------------------------------------------
# The 200-seed regression property (satellite: "prove 0 divergences")
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_fuzz_200_seeds_zero_divergences():
    """The acceptance-criteria sweep, rotated so each seed checks one
    hooked + one hook-free prefetcher (full cross product is the CI
    ``repro fuzz`` job's budget, not the tier-1 suite's)."""
    hooked = ("tpc", "bop", "spp", "sms", "vldp")
    violations = []
    for seed in range(200):
        prefetchers = ("none", hooked[seed % len(hooked)])
        summary = check_workload(fuzz_workload(seed), prefetchers)
        violations += summary["violations"]
    assert violations == [], violations
