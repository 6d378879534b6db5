"""One timed pass of each workload, driven through the public APIs.

A pass runs report sections on the seeded inputs and returns what the
checks need: every simulation's identity tuple (cycles, instructions,
L1D demand misses, DRAM traffic; per core for mixes), each fresh
simulation's kernel variant, a digest of every rendered figure, and the
wall time of each section.  Simulations reach the record through a
recording ``ExperimentRunner`` subclass and, for the 4-core mixes,
through the results ``simulate_multicore`` returns.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from pathlib import Path

from repro.analysis.metrics import geometric_mean
from repro.engine.config import EXPERIMENT_CONFIG
from repro.engine import multicore
from repro.experiments import (
    ablations,
    drop_policy,
    fig01,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
)
from repro.experiments.runner import (
    ExperimentRunner,
    build_prefetcher,
    spec_key,
)
from repro.workloads import get_workload

CACHED_SECTIONS = [("fig01", fig01), ("fig08", fig08), ("fig09", fig09),
                   ("fig10", fig10), ("fig12", fig12), ("fig15", fig15),
                   ("fig16", fig16), ("ablations", ablations)]
"""The cacheable report sections, in ``repro report`` order."""

TRACKED_SECTIONS = [("fig13", fig13), ("fig14", fig14)]
"""Credit-tracked sections: their tracked runs are never cached."""

MIX_PREFETCHERS = ["tpc", "bop"]
"""Fig. 11's shared-mode protocol on a mix: a ``none`` baseline, TPC and
one monolithic prefetcher."""


def identity(result) -> list[int]:
    """The numbers a speed-up must leave bit-identical."""
    return [result.cycles, result.core.instructions,
            result.l1d.demand_misses, result.dram_traffic]


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


class Record:
    """Everything one pass produced, keyed for comparison."""

    def __init__(self) -> None:
        self.cells: dict[str, list] = {}     # simulation -> identity
        self.kernels: dict[str, str] = {}    # fresh simulation -> kernel
        self.figures: dict[str, str] = {}    # section -> render digest
        self.sections: dict[str, float] = {}  # section -> wall seconds
        self.errors: list[str] = []
        self.instructions = 0                # fresh single-core
        self.mc_instructions = 0
        self.mc_runs = 0
        self.accept = [0, 0]                 # prefetches issued, offered
        self.runners: list[ExperimentRunner] = []
        self.cache_bytes = 0

    def add(self, key: str, result, fresh: bool) -> None:
        self.cells[key] = identity(result)
        if fresh:
            self.kernels[key] = result.kernel
            self.instructions += result.core.instructions
            self._count_prefetches(result.prefetch)

    def add_mix(self, key: str, shared) -> None:
        self.cells[key] = [identity(r) for r in shared.per_core]
        self.mc_instructions += shared.total_instructions
        self.mc_runs += 1
        for r in shared.per_core:
            self._count_prefetches(r.prefetch)

    def _count_prefetches(self, stats) -> None:
        self.accept[0] += stats.issued
        self.accept[1] += (stats.issued + stats.filtered
                           + stats.dropped_mshr + stats.dropped_dram)


class RecordingRunner(ExperimentRunner):
    """An ``ExperimentRunner`` that reports every result it hands out."""

    def __init__(self, record: Record, phase: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self.record = record
        self.phase = phase
        self.tracked_seen: dict[str, int] = {}
        record.runners.append(self)

    def run(self, workload, prefetcher="none", tag=""):
        before = self.counters["simulated"]
        result = super().run(workload, prefetcher, tag)
        key = f"{self.phase}:{workload}/{spec_key(prefetcher)}#{tag}"
        if key not in self.record.cells:
            # The cold phase starts from an empty cache, so each of its
            # cells was simulated once in this pass (here or by a pool
            # prefill); a warm-phase cell is fresh only if this call
            # simulated it.
            fresh = (self.phase == "cold"
                     or self.counters["simulated"] > before)
            self.record.add(key, result, fresh)
        return result

    def run_tracked(self, workload, prefetcher, tracker, tag=""):
        result = super().run_tracked(workload, prefetcher, tracker, tag)
        base = f"tracked:{workload}/{spec_key(prefetcher)}#{tag}"
        n = self.tracked_seen.get(base, 0)
        self.tracked_seen[base] = n + 1
        self.record.add(f"{base}@{n}", result, fresh=True)
        return result


def _section(record: Record, name: str, body, tracer) -> str | None:
    """Time one section; a section that raises is recorded, not fatal."""
    started = time.perf_counter()
    try:
        text = body() if tracer is None else tracer.call(
            "experiments.self", body)
    except Exception as exc:  # one failed section must not hide the rest
        record.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        text = None
    record.sections[name] = (record.sections.get(name, 0.0)
                             + time.perf_counter() - started)
    return text


def _figure_sections(record: Record, runner, sections, apps, tracer,
                     label_prefix: str = "") -> dict[str, str | None]:
    texts = {}
    for name, module in sections:
        def body(module=module):
            return module.render(module.run(runner, apps=apps))

        text = _section(record, label_prefix or name, body, tracer)
        texts[name] = text
    return texts


def run_figures(record: Record, inputs: dict, jobs: int, tracer) -> None:
    """``figs-cached`` / ``figs-pool``: the cacheable sections through one
    runner on a fresh result cache, then a warm re-render of the same
    sections from that cache by a second runner."""
    apps = inputs["apps"]
    with tempfile.TemporaryDirectory(prefix="resultcache-") as cache_dir:
        cold = RecordingRunner(record, "cold", cache_dir=cache_dir,
                               jobs=jobs)
        texts = _figure_sections(record, cold, CACHED_SECTIONS, apps,
                                 tracer)
        for name, text in texts.items():
            if text is not None:
                record.figures[name] = digest(text)
        record.cache_bytes = sum(
            p.stat().st_size for p in Path(cache_dir).rglob("*.pkl"))
        warm = RecordingRunner(record, "warm", cache_dir=cache_dir,
                               jobs=jobs)
        warm_texts = _figure_sections(record, warm, CACHED_SECTIONS, apps,
                                      tracer, label_prefix="warm")
    for name, text in warm_texts.items():
        if text is not None and text != texts.get(name):
            record.errors.append(f"warm:{name}: re-render differs")


def run_tracked(record: Record, inputs: dict, tracer) -> None:
    """``figs-tracked``: Figs. 13 and 14 (credit-tracked, never cached)."""
    runner = RecordingRunner(record, "cold")
    texts = _figure_sections(record, runner, TRACKED_SECTIONS,
                             inputs["apps"], tracer)
    for name, text in texts.items():
        if text is not None:
            record.figures[name] = digest(text)


def _mix_speedups(record: Record, mixes: list[list[str]]) -> str:
    """Fig. 11's shared-mode protocol on ``mixes``, rendered by fig11."""
    config = EXPERIMENT_CONFIG
    per_prefetcher: dict[str, list[float]] = {p: [] for p in MIX_PREFETCHERS}
    for names in mixes:
        traces = [get_workload(n).trace() for n in names]
        label = "+".join(names)
        # Looked up at call time, so a traced run's wrapper sees it.
        baseline = multicore.simulate_multicore(
            traces, [build_prefetcher("none") for _ in names], config)
        record.add_mix(f"mix:{label}/none", baseline)
        for prefetcher in MIX_PREFETCHERS:
            shared = multicore.simulate_multicore(
                traces, [build_prefetcher(prefetcher) for _ in names],
                config)
            record.add_mix(f"mix:{label}/{prefetcher}", shared)
            per_app = [with_pf.ipc / without.ipc
                       for with_pf, without in zip(shared.per_core,
                                                   baseline.per_core)
                       if without.ipc > 0]
            per_prefetcher[prefetcher].append(sum(per_app) / len(per_app))
    suite = fig11.SuiteSpeedups(
        suite="mixes-4core",
        geomeans={p: geometric_mean(v) for p, v in per_prefetcher.items()})
    return fig11.render([suite])


def run_mixes(record: Record, inputs: dict, tracer) -> None:
    """``mixes-4core``: Fig. 11's mixes, then the Sec. V-C1 drop-policy
    experiment on the same mixes.  Nothing is cached."""
    mixes = inputs["mixes"]
    text = _section(record, "fig11_mixes",
                    lambda: _mix_speedups(record, mixes), tracer)
    if text is not None:
        record.figures["fig11_mixes"] = digest(text)

    original = drop_policy.simulate_multicore
    seen: dict[str, int] = {}

    def recording(traces, prefetchers=None, config=None, trackers=None):
        shared = original(traces, prefetchers, config, trackers)
        label = "+".join(t.name for t in traces)
        policy = config.dram.drop_policy.name if config else "default"
        spec = prefetchers[0].name if prefetchers else "none"
        base = f"drop:{label}/{policy}/{spec}"
        n = seen.get(base, 0)
        seen[base] = n + 1
        record.add_mix(f"{base}@{n}", shared)
        return shared

    drop_policy.simulate_multicore = recording
    try:
        text = _section(
            record, "drop_policy",
            lambda: drop_policy.render(drop_policy.run(mixes=mixes)),
            tracer)
    finally:
        drop_policy.simulate_multicore = original
    if text is not None:
        record.figures["drop_policy"] = digest(text)


def run_pass(workload: str, inputs: dict, tracer=None) -> Record:
    record = Record()
    if workload == "figs-cached":
        run_figures(record, inputs, 1, tracer)
    elif workload == "figs-pool":
        run_figures(record, inputs, 2, tracer)
    elif workload == "figs-tracked":
        run_tracked(record, inputs, tracer)
    elif workload == "mixes-4core":
        run_mixes(record, inputs, tracer)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return record


def calibration_cell(workload: str, inputs: dict):
    """A zero-argument simulation of the pass's own inputs whose hook mix
    resembles the pass, for measuring the wrapper cost in place.  It
    looks the engine entry points up at call time, so it runs traced or
    untraced depending on whether the tracer's wrappers are installed."""
    from repro.analysis.credit import CreditTracker
    from repro.engine import system

    if workload == "mixes-4core":
        traces = [get_workload(n).trace() for n in inputs["mixes"][0]]
        return lambda: multicore.simulate_multicore(
            traces, [build_prefetcher("tpc") for _ in traces],
            EXPERIMENT_CONFIG)
    trace = get_workload(inputs["apps"][0]).trace()
    if workload == "figs-tracked":
        return lambda: system.simulate(
            trace, build_prefetcher("tpc"), EXPERIMENT_CONFIG,
            tracker=CreditTracker())
    return lambda: system.simulate(trace, build_prefetcher("tpc"),
                                   EXPERIMENT_CONFIG)
