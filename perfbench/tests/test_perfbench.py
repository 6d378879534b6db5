"""Tests of the benchmark itself (not of the simulator).

    python3 -m pytest perfbench/tests -q

The tracer tests simulate a few cells of one cheap paper app; they run
in a temporary working directory so the trace they build stays out of
the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import metrics  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

CHEAP_APP = "spec.gamess"


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_seed_maps_to_the_same_paper_inputs():
    from repro.workloads import workload_names

    paper = {n for suite in inputs.PAPER_SUITES
             for n in workload_names(suite)}
    table = inputs.candidates()
    for workload, kind in inputs.KIND.items():
        seen = set()
        for seed in range(200):
            chosen = inputs.for_seed(workload, seed)
            assert chosen == inputs.for_seed(workload, seed, table)
            names = inputs.trace_names(chosen)
            assert names and set(names) <= paper
            assert not any(n.startswith(("stress.", "fuzz."))
                           for n in names)
            seen.add(json.dumps(chosen))
        assert len(seen) == len(table[kind]), \
            f"{workload}: some candidate is never drawn"
    assert len(table["tracked"]) > 1 and len(table["mixes"]) > 1


def test_figs_pool_draws_what_figs_cached_draws():
    for seed in range(50):
        assert (inputs.for_seed("figs-pool", seed)
                == inputs.for_seed("figs-cached", seed))


def test_every_candidate_has_a_reference():
    reference = run.load_reference()
    table = inputs.candidates()
    for workload in ("figs-cached", "figs-tracked", "mixes-4core"):
        kind = inputs.KIND[workload]
        for candidate in table[kind]:
            chosen = inputs.as_inputs(kind, candidate)
            assert inputs.reference_key(workload, chosen) in reference


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    pct, value, beyond = metrics.tail_percentile(values)
    assert (pct, value, beyond) == (90.0, 90, 10)


def test_tail_never_drops_below_the_median():
    # Eleven samples leave ten beyond only at the minimum, which is no
    # tail; twenty leave ten beyond the median itself.
    assert metrics.tail_percentile(list(range(11))) == (50.0, 5, 5)
    assert metrics.tail_percentile(list(range(20))) == (50.0, 9, 10)
    assert metrics.tail_percentile(list(range(21)))[0] == 52.0


def test_tail_with_fewer_than_eleven_samples_is_the_median():
    values = [5.0, 1.0, 3.0, 4.0, 2.0]
    assert metrics.tail_percentile(values) == (50.0, 3.0, 2)
    assert metrics.median_rank(values) == 3.0
    assert metrics.tail_percentile([7.0]) == (50.0, 7.0, 0)
    assert metrics.tail_percentile([]) == (0.0, 0.0, 0)


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def _doc(**overrides):
    doc = {"errors": [], "trace_builds": 0,
           "cells": {"cold:a/none#": [100, 50, 7, 9],
                     "cold:a/tpc#": [80, 50, 3, 11]},
           "figures": {"fig08": "0123456789abcdef"},
           "kernels": {"cold:a/none#": "batch+leanmem+staticbp",
                       "cold:a/tpc#": "segmented+instr+leanmem+staticbp"},
           "runners": [{"phase": "cold", "cached": True, "simulated": 2,
                        "disk_hits": 0, "memory_hits": 0}]}
    doc.update(overrides)
    return doc


def _reference():
    doc = _doc()
    return {"cells": doc["cells"], "figures": doc["figures"]}


def test_matching_pass_has_no_failures():
    attempted, failed, problems = run.check_pass(_doc(), "figs-cached",
                                                 _reference())
    assert (attempted, failed, problems) == (3, 0, [])


def test_planted_reference_mismatch_fails():
    reference = _reference()
    reference["cells"]["cold:a/tpc#"] = [81, 50, 3, 11]
    attempted, failed, problems = run.check_pass(_doc(), "figs-cached",
                                                 reference)
    assert failed == 1 and failed / attempted > 0
    assert "cold:a/tpc#" in problems[0]


def test_planted_figure_mismatch_and_missing_reference_fail():
    reference = _reference()
    reference["figures"]["fig08"] = "fedcba9876543210"
    assert run.check_pass(_doc(), "figs-cached", reference)[1] == 1
    attempted, failed, _ = run.check_pass(_doc(), "figs-cached", None)
    assert failed == attempted == 3


def test_raising_section_fails_without_exceeding_attempts():
    # fig08 raised: its figure and one of its cells never came back.
    raised = _doc(errors=["fig08: RuntimeError: boom"],
                  cells={"cold:a/none#": [100, 50, 7, 9]}, figures={})
    attempted, failed, problems = run.check_pass(raised, "figs-cached",
                                                 _reference())
    assert (attempted, failed) == (4, 3)
    assert problems[0] == "fig08: RuntimeError: boom"
    # A broken invariant on top of every simulation and figure failing.
    worst = _doc(errors=["fig08: RuntimeError: boom"], cells={},
                 figures={}, trace_builds=2)
    attempted, failed, _ = run.check_pass(worst, "figs-cached", None)
    assert 0 < failed <= attempted


def test_kernel_variant_change_between_passes_fails():
    first = _doc(inputs={"apps": ["a"]})
    kernels = dict(first["kernels"])
    kernels["cold:a/tpc#"] = "fast+instr+leanmem+staticbp"
    traced = _doc(inputs={"apps": ["a"]}, kernels=kernels, trace={})
    reference = {inputs.reference_key("figs-cached", first["inputs"]):
                 _reference()}
    result = run.verdict({"docs": [first, traced]}, "figs-cached",
                         reference)
    assert (result["attempted"], result["failed"]) == (3 + 3 + 2, 1)
    assert "traced pass" in result["problems"][0]


def test_broken_invariants_fail():
    builds = _doc(trace_builds=1)
    assert run.check_pass(builds, "figs-cached", _reference())[1] == 1
    generic = _doc(kernels={"cold:a/none#": "generic",
                            "cold:a/tpc#": "generic"})
    assert run.check_pass(generic, "figs-cached", _reference())[1] == 1
    assert run.check_pass(generic, "mixes-4core", _reference())[1] == 0
    warm = _doc(runners=_doc()["runners"] + [
        {"phase": "warm", "cached": True, "simulated": 1, "disk_hits": 1,
         "memory_hits": 0}])
    assert run.check_pass(warm, "figs-cached", _reference())[1] == 1


def test_forked_process_without_speed_samples_fails():
    unsampled = _doc(pace={"unsampled_forks": 1})
    attempted, failed, problems = run.check_pass(unsampled, "figs-pool",
                                                 _reference())
    assert (attempted, failed) == (4, 1)
    assert "no speed samples" in problems[0]


# ----------------------------------------------------------------------
# Host-speed rescaling
# ----------------------------------------------------------------------
def test_rescale_counts_program_cpu_at_each_process_speed():
    # Half speed on the parent, double on the worker; slices are 10%.
    parent = {"cpu": 2.0, "spent": 0.2, "factor": 0.5, "samples": 200}
    worker = {"cpu": 1.0, "spent": 0.1, "factor": 2.0, "samples": 100}
    out = pace.rescale(3.0, [parent, worker])
    assert out["cpu"] == pytest.approx(1.8 * 0.5 + 0.9 * 2.0)
    # CPU-weighted: (1.8 * 0.5 + 0.9 * 2.0) / (1.8 + 0.9)
    assert out["factor"] == pytest.approx(1.0)
    assert out["overhead"] == pytest.approx(0.1)
    assert out["wall"] == pytest.approx(3.0 * 0.9 * 1.0)
    assert out["samples"] == 300
    idle = pace.rescale(1.0, [{"cpu": 0.0, "spent": 0.0, "factor": 1.0,
                               "samples": 0}])
    assert (idle["wall"], idle["cpu"]) == (1.0, 0.0)


def test_pace_samples_while_the_process_computes():
    sampler = pace.Pace().start()
    try:
        before = sampler.totals()
        started = pace.process_cpu()
        while pace.process_cpu() - started < 0.2:
            sum(range(10_000))
        after = sampler.totals()
    finally:
        sampler.stop()
    figures = pace.span(before, after)
    assert figures["samples"] >= 5
    assert 0 < figures["spent"] < figures["cpu"]
    assert figures["factor"] > 0


def test_forked_pool_workers_leave_their_speed(tmp_path):
    script = f"""
import json, multiprocessing, sys
sys.path.insert(0, {str(HERE)!r})
import pace

def busy():
    started = pace.process_cpu()
    while pace.process_cpu() - started < 0.2:
        sum(range(10_000))

forks = pace.Forks({str(tmp_path)!r}, pace.Pace())
child = multiprocessing.get_context("fork").Process(target=busy)
child.start()
child.join(30)
print(json.dumps([forks.forked, child.exitcode, forks.spans()]))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    forked, exitcode, [figures] = json.loads(proc.stdout)
    assert (forked, exitcode) == (1, 0), proc.stderr
    assert figures["samples"] >= 5 and figures["cpu"] >= 0.2


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_wrapper_keeps_signature_defaults_and_self_time():
    class Thing:
        def hook(self, line, level, prefetched=False, *, tag="x"):
            return (line, level, prefetched, tag)

    tracer = tracing.Tracer()
    original = Thing.__dict__["hook"]
    tracing._wrap_methods(tracer, Thing, ["hook"], "thing")
    assert Thing.__dict__["hook"] is not original
    thing = Thing()
    assert thing.hook(1, 2) == (1, 2, False, "x")
    assert thing.hook(1, 2, True, tag="y") == (1, 2, True, "y")
    assert tracer.stats["thing"][1] == 2
    tracer.suspend()
    assert Thing.__dict__["hook"] is original


def test_inherited_hooks_are_never_wrapped():
    from repro.core.base import Prefetcher

    class Plain(Prefetcher):
        def on_access(self, event):
            return None

    tracer = tracing.Tracer()
    tracing._wrap_methods(tracer, Plain, tracing.HOOKS, "plain")
    assert "observe_access" not in Plain.__dict__
    assert Plain.observe_access is Prefetcher.observe_access
    tracer.suspend()


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _cells():
    """One cell per replay tier: (tier, zero-argument simulation)."""
    from repro.analysis.credit import CreditTracker
    from repro.engine import multicore, system
    from repro.experiments.runner import build_prefetcher
    from repro.workloads import get_workload

    trace = get_workload(CHEAP_APP).trace()
    return [
        ("batch", lambda: system.simulate(trace, build_prefetcher("none"))),
        ("segmented",
         lambda: system.simulate(trace, build_prefetcher("tpc"))),
        ("scalar", lambda: system.simulate(trace, build_prefetcher("tpc"),
                                           tracker=CreditTracker())),
        ("generic", lambda: multicore.simulate_multicore(
            [trace, trace], [build_prefetcher("tpc") for _ in range(2)]
        ).per_core[0]),
    ]


def _figure():
    from repro.experiments import fig08
    from repro.experiments.runner import ExperimentRunner

    return fig08.render(fig08.run(ExperimentRunner(), apps=[CHEAP_APP],
                                  prefetchers=["tpc", "bop"]))


def test_traced_run_keeps_kernel_variant_and_figures(in_tmp):
    import passes

    untraced = [(tier, cell()) for tier, cell in _cells()]
    figure = _figure()
    tracer = tracing.Tracer()
    tracing.install(tracer, {"workloads", "resultcache", "parallel",
                             "engine", "memory", "core", "baselines",
                             "analysis"})
    try:
        traced = [(tier, cell()) for tier, cell in _cells()]
        traced_figure = _figure()
    finally:
        tracer.suspend()
    for (tier, plain), (_, wrapped) in zip(untraced, traced):
        assert tracing.tier_of(plain.kernel) == tier
        assert wrapped.kernel == plain.kernel
        assert passes.identity(wrapped) == passes.identity(plain)
    assert traced_figure == figure
    assert tracer.stats["core.t2"][1] > 0
    assert tracer.stats["memory.demand_access"][1] > 0
    assert tracer.stats["analysis.credit"][1] > 0


# ----------------------------------------------------------------------
# BENCHMARK.json and the command line
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_metrics():
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"])
           for m in bench["end_to_end"]}
    assert e2e == metrics.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layer == metrics.PER_LAYER
    names = [w["name"] for w in bench["workloads"]]
    assert set(names) <= set(inputs.KIND)
    assert max(e2e.values(), key=lambda v: v[2]) == e2e["setup_s"]


def test_refuses_repro_variables(tmp_path):
    env = dict(os.environ, REPRO_KERNEL="generic")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "figs-cached",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "REPRO_KERNEL" in proc.stderr and proc.stdout == ""


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figs-cached",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
