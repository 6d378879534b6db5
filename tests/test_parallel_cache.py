"""Parallel fan-out and on-disk result cache (docs/performance.md).

The contract under test is bit-identity: ``--jobs N`` must change
nothing but wall-clock time, and a warm cache must reproduce cold
results exactly while performing zero fresh simulations.
"""

import pickle

import pytest

from repro.engine.config import EXPERIMENT_CONFIG
from repro.experiments import fig09, fig12
from repro.experiments.runner import (
    ExperimentRunner,
    SpecFactory,
    resolve_spec,
    spec_key,
)
from repro.core.base import Prefetcher
from repro.core.composite import make_tpc
from repro import parallel
from repro.engine.compact import CreditLog, LineCounts, LineSet
from repro.engine.system import SimulationResult
from repro.parallel import (
    normalize_job,
    run_jobs,
    shutdown_pool,
)
from repro.resultcache import ResultCache, code_version, config_digest

APPS = ["spec.libquantum", "spec.astar"]


class _CountingFactory:
    """Factory with a stable key that counts how often it builds."""

    cache_key = "counting-tpc"

    def __init__(self):
        self.builds = 0

    def __call__(self) -> Prefetcher:
        self.builds += 1
        return make_tpc()


# ----------------------------------------------------------------------
# Spec resolution
# ----------------------------------------------------------------------
def test_runner_builds_spec_exactly_once_per_simulation():
    factory = _CountingFactory()
    runner = ExperimentRunner()
    runner.run(APPS[0], factory)
    assert factory.builds == 1
    runner.run(APPS[0], factory)  # memoized: no rebuild
    assert factory.builds == 1
    assert runner.counters["simulated"] == 1
    assert runner.counters["memory_hits"] == 1


def test_resolve_spec_anonymous_factory_builds_at_most_once():
    built = []

    def factory():
        built.append(1)
        return make_tpc()

    factory.__name__ = "<lambda>"  # force the descriptor fallback
    key, instance = resolve_spec(factory)
    assert instance is not None, "keying built it, so the caller reuses it"
    assert len(built) == 1
    assert key.startswith(instance.name + "@")
    assert spec_key(factory) == key  # stable across resolutions


def test_spec_factory_pickles_with_same_key():
    factory = SpecFactory("tpc:tp", make_tpc, components="tp")
    clone = pickle.loads(pickle.dumps(factory))
    assert clone.cache_key == factory.cache_key
    assert clone().name == factory().name
    assert normalize_job(("spec.mcf", factory))[1] is factory


# ----------------------------------------------------------------------
# Parallel fan-out
# ----------------------------------------------------------------------
def test_run_jobs_results_in_submission_order():
    jobs = [(app, "none") for app in APPS]
    results = run_jobs(jobs, EXPERIMENT_CONFIG, 2)
    assert [r.workload for r in results] == APPS


@pytest.mark.parametrize("figure,kwargs", [
    (fig09, {"prefetchers": ["bop"]}),
    (fig12, {"monolithic": []}),
])
def test_figures_identical_at_jobs_1_and_4(figure, kwargs):
    serial = figure.run(runner=ExperimentRunner(jobs=1), apps=APPS, **kwargs)
    fanned = figure.run(runner=ExperimentRunner(jobs=4), apps=APPS, **kwargs)
    assert figure.render(serial) == figure.render(fanned)
    assert serial == fanned


def test_single_job_runs_in_process(monkeypatch):
    """One pool-eligible cell must never pay process-pool overhead."""
    def fail(workers):
        raise AssertionError("pool created for a single job")

    monkeypatch.setattr(parallel, "_get_executor", fail)
    results = run_jobs([(APPS[0], "none")], EXPERIMENT_CONFIG, 8)
    assert results[0].workload == APPS[0]


def test_pool_persists_across_run_jobs_calls():
    jobs = [(app, spec) for app in APPS for spec in ("none", "bop")]
    shutdown_pool()
    try:
        run_jobs(jobs, EXPERIMENT_CONFIG, 2)
        first = parallel._EXECUTOR
        assert first is not None and parallel.pool_workers() == 2
        run_jobs(jobs, EXPERIMENT_CONFIG, 2)
        assert parallel._EXECUTOR is first  # reused, not respawned
        run_jobs(jobs, EXPERIMENT_CONFIG, 3)
        assert parallel._EXECUTOR is not first  # size change recreates
        assert parallel.pool_workers() == 3
    finally:
        shutdown_pool()
    assert parallel.pool_workers() == 0


def _assert_same_fields(copy, reference, how):
    """``copy`` equals ``reference`` field by field, each ``==`` a bool."""
    from dataclasses import fields

    for field in fields(SimulationResult):
        equal = getattr(copy, field.name) == getattr(reference, field.name)
        assert equal is True, (how, field.name)


@pytest.mark.parametrize("app", ["stress.shadow_mix", "spec.milc"])
def test_compact_result_round_trips(app, tmp_path):
    """A ``tpc`` result keeps its per-line records in compact forms and
    equals itself, field by field, after a pickle, a result-cache
    put/get and a pool run, where it crosses the pipe as it is."""
    from repro.experiments.runner import simulate_spec

    reference = simulate_spec(app, "tpc", "", EXPERIMENT_CONFIG)
    assert isinstance(reference.miss_lines_l1, LineCounts)
    assert isinstance(reference.attempted_prefetch_lines, LineSet)
    assert all(isinstance(lines, LineSet)
               for lines in reference.attempted_by_component.values())
    assert isinstance(reference.credit_log, CreditLog)
    assert len(reference.credit_log) and len(reference.miss_lines_l1)

    _assert_same_fields(pickle.loads(pickle.dumps(reference)), reference,
                        "pickle")
    cache = ResultCache(tmp_path)
    digest = config_digest(EXPERIMENT_CONFIG)
    cache.put(app, "tpc", "", digest, reference)
    _assert_same_fields(cache.get(app, "tpc", "", digest), reference,
                        "result cache")
    try:
        pooled, _baseline = run_jobs([(app, "tpc"), (app, "none")],
                                     EXPERIMENT_CONFIG, 2)
    finally:
        shutdown_pool()
    _assert_same_fields(pooled, reference, "run_jobs")


def test_run_jobs_reports_phase_timings():
    jobs = [(app, "none") for app in APPS]
    timings: dict = {}
    try:
        run_jobs(jobs, EXPERIMENT_CONFIG, 2, timings=timings)
    finally:
        shutdown_pool()
    assert set(timings) == {"trace_warm_seconds", "simulate_seconds",
                            "merge_seconds"}
    assert all(v >= 0 for v in timings.values())


def test_prefill_matches_on_demand_results():
    serial = ExperimentRunner()
    fanned = ExperimentRunner(jobs=4)
    jobs = [(app, spec) for app in APPS for spec in ("none", "bop")]
    assert fanned.prefill(jobs) == len(jobs)
    for app, spec in jobs:
        a = serial.run(app, spec)
        b = fanned.run(app, spec)
        assert (a.core.cycles, a.core.instructions, a.l1d.demand_misses) \
            == (b.core.cycles, b.core.instructions, b.l1d.demand_misses)
    # Every post-prefill run() must be a memory hit.
    assert fanned.counters["memory_hits"] == len(jobs)


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
def test_warm_cache_is_identical_and_simulates_nothing(tmp_path):
    cells = [(app, spec) for app in APPS for spec in ("none", "tpc")]

    cold = ExperimentRunner(cache_dir=str(tmp_path))
    cold_results = {cell: cold.run(*cell) for cell in cells}
    assert cold.counters["simulated"] == len(cells)

    warm = ExperimentRunner(cache_dir=str(tmp_path))
    for cell in cells:
        a, b = cold_results[cell], warm.run(*cell)
        assert (a.core.cycles, a.core.ipc, a.dram.reads) \
            == (b.core.cycles, b.core.ipc, b.dram.reads)
    assert warm.counters["simulated"] == 0
    assert warm.counters["disk_hits"] == len(cells)


def test_cache_key_separates_configs_and_code_versions(tmp_path):
    cache = ResultCache(str(tmp_path))
    digest = config_digest(EXPERIMENT_CONFIG)
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    result = runner.run(APPS[0], "none")
    assert cache.get(APPS[0], "none", "", digest) is not None
    # A different config digest or tag misses.
    assert cache.get(APPS[0], "none", "", "0" * 16) is None
    assert cache.get(APPS[0], "none", "other-tag", digest) is None
    # Entries live under the current code-version directory, so editing
    # simulator sources orphans (invalidates) them wholesale.
    assert (tmp_path / code_version()).is_dir()
    assert result.core.instructions > 0


def test_code_version_covers_every_spec_builder():
    """Editing a ``SpecFactory`` builder changes what its cells compute,
    so every builder an experiment wraps in one lives in a file the
    result cache's code version digests."""
    import ast
    import importlib
    import inspect
    import pkgutil
    from pathlib import Path

    import repro.experiments
    from repro.resultcache import sim_source_paths

    covered = {path.resolve() for path in sim_source_paths()}
    builders = []
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "SpecFactory"):
                builders.append(getattr(module, node.args[1].id))
    assert len(builders) >= 9
    for builder in builders:
        path = Path(inspect.getsourcefile(builder)).resolve()
        assert path in covered, builder.__qualname__


def test_cache_stats_and_clear(tmp_path):
    runner = ExperimentRunner(cache_dir=str(tmp_path))
    runner.run(APPS[0], "none")
    cache = ResultCache(str(tmp_path))
    stats = cache.stats()
    assert stats["entries"] == 1 and stats["bytes"] > 0
    removed = cache.clear()
    assert removed == 1
    assert cache.stats()["entries"] == 0
