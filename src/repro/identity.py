"""Cross-tier identity property harness (``repro fuzz``).

The engine replays single-core cells and multicore mixes alike on the
segmented kernels (:mod:`repro.engine.segmented`); the generic step
loop is the reference for both.  This module checks, over the stress
suite and the seeded traces of :mod:`repro.workloads.fuzz`, that every
cell replayed under any registered prefetcher produces bit-identical
figures across

* **kernel vs generic** — the automatically selected kernel against
  the ``REPRO_KERNEL=generic`` escape hatch (the un-specialized step
  loop), recorded credit logs (the Figs. 13-14 input) included;
* **fused vs singleton** — the cell executed inside a workload-affine
  fused unit (:func:`repro.parallel._simulate_unit`, the exact worker
  entry point, its outcomes pickled and unpickled as they cross the
  pool's pipe) against the same cell simulated alone;
* **warm vs cold** — the compiled trace read back through the on-disk
  trace cache (``from_column_bytes`` with persisted derived columns)
  against a ground-truth rebuild from the functional machine run.

``repro fuzz --seeds N`` runs the harness over the stress suite plus N
fuzzed traces and exits nonzero on any violation; its report counts
the simulations and violations.  The sweep ends with a mix leg: the
fuzzed seeds, :data:`MIX_WIDTH` at a time, run as one shared-L3/DRAM
:func:`~repro.engine.multicore.simulate_multicore` mix,
kernel-vs-generic (:func:`check_mix`).

The harness lives outside ``repro.workloads`` on purpose: the trace
cache's code version digests every module there
(:func:`repro.workloads.tracecache.trace_code_paths`), and editing the
harness must not orphan a cached trace.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import asdict, dataclass

from repro.engine.kernel import pinned_kernel
from repro.isa.trace import compile_trace
from repro.workloads.fuzz import fuzz_workload
from repro.workloads.registry import Workload

DEFAULT_SEEDS = 25

INVARIANTS = ("kernel-vs-generic", "fused-vs-singleton", "warm-vs-cold")

MIX_WIDTH = 4
"""Fuzzed seeds per multicore mix in the sweep's mix leg (the paper's
4-core mixes)."""

MIX_DROP_PREFETCHERS = ("tpc", "bop")
"""Prefetchers the mix leg also runs under both DRAM drop policies at
the drop-policy experiment's queue capacity (Sec. V-C1)."""


@dataclass
class IdentityViolation:
    """One bit-identity break, addressable enough to replay by hand."""

    workload: str
    prefetcher: str
    invariant: str
    kernel: str
    reference_kernel: str
    fields: list
    """Names of the diverging result fields (e.g. ``core``, ``dram``)."""

    def to_dict(self) -> dict:
        return asdict(self)


_IDENTITY_FIELDS = (
    "core", "l1d", "l2", "l3", "dram", "prefetch",
    "miss_lines_l1", "miss_lines_l2", "attempted_prefetch_lines",
    "attempted_by_component", "pollution_misses_l1", "pollution_misses_l2",
    "credit_log",
)


def identity_tuple(result) -> tuple:
    """Everything a simulation reports, for exact comparison (the
    per-line records in their compact forms, whose ``==`` is exact; see
    :mod:`repro.engine.compact`)."""
    return tuple(getattr(result, name) for name in _IDENTITY_FIELDS)


def diff_fields(a, b) -> list:
    """Names of the result fields where ``a`` and ``b`` differ."""
    return [name for name in _IDENTITY_FIELDS
            if getattr(a, name) != getattr(b, name)]


def _simulate_tier(trace, prefetcher: str, config, tier: str | None):
    """One simulation on kernel tier ``tier`` (see :func:`~repro.engine.kernel.pinned_kernel`)."""
    from repro.engine.system import simulate
    from repro.prefetcher_registry import make_prefetcher

    with pinned_kernel(tier):
        return simulate(trace, make_prefetcher(prefetcher), config)


def _simulate_mix(traces, prefetcher: str, config, tier: str | None):
    """One multicore mix, ``prefetcher`` on every core, on kernel tier
    ``tier`` (see :func:`~repro.engine.kernel.pinned_kernel`)."""
    from repro.engine.multicore import simulate_multicore
    from repro.prefetcher_registry import make_prefetcher

    with pinned_kernel(tier):
        return simulate_multicore(
            traces, [make_prefetcher(prefetcher) for _ in traces], config)


def mix_identity(result) -> list:
    """Every core's :func:`identity_tuple`, then the shared DRAM traffic."""
    return ([identity_tuple(core) for core in result.per_core]
            + [result.dram_traffic])


def _mix_diff(a, b) -> list:
    """Names of the diverging fields of two mix results
    (``core<i>.<field>``, ``dram_traffic``)."""
    fields = [f"core{i}.{name}"
              for i, (x, y) in enumerate(zip(a.per_core, b.per_core))
              for name in diff_fields(x, y)]
    if a.dram_traffic != b.dram_traffic:
        fields.append("dram_traffic")
    return fields


def _warm_trace(workload: Workload):
    """The workload's trace via a forced on-disk round trip.

    ``workload.trace()`` builds (or memo-hits) and guarantees a cache
    ``put``; re-reading through :class:`TraceCache` then deserializes
    the columnar blobs exactly as a fresh process would.  The round-trip
    copy replaces the instance memo so the fused-unit invariant replays
    against the same bytes.  Falls back to the memoized trace when the
    cache is unavailable (e.g. a read-only filesystem).
    """
    from repro.workloads.tracecache import TraceCache

    memo = workload.trace()
    cached = TraceCache().get(workload.name, workload.simpoint)
    if cached is None:
        return memo, False
    workload._trace = cached
    return cached, True


def check_workload(workload: Workload, prefetchers, config=None, *,
                   fused: bool = True, cold: bool = True) -> dict:
    """Run the three invariants for one workload over ``prefetchers``.

    Returns a summary dict: ``violations`` (list of
    :class:`IdentityViolation`), ``simulations``, ``kernels`` (variant
    histogram), and ``events``/``instructions`` for sizing.
    """
    from repro.engine.config import EXPERIMENT_CONFIG
    from repro.engine.kernel import GENERIC
    from repro.parallel import _simulate_unit

    config = config or EXPERIMENT_CONFIG
    violations: list[IdentityViolation] = []
    kernels: dict[str, int] = {}
    sims = 0

    warm, round_tripped = _warm_trace(workload)
    cold_trace = None
    if cold:
        cold_trace = compile_trace(workload.object_trace())

    singles = {}
    for name in prefetchers:
        tiered = _simulate_tier(warm, name, config, None)
        generic = _simulate_tier(warm, name, config, GENERIC)
        sims += 2
        singles[name] = tiered
        kernels[tiered.kernel] = kernels.get(tiered.kernel, 0) + 1
        if identity_tuple(tiered) != identity_tuple(generic):
            violations.append(IdentityViolation(
                workload.name, name, "kernel-vs-generic",
                tiered.kernel, generic.kernel,
                diff_fields(tiered, generic)))
        if cold_trace is not None:
            cold_result = _simulate_tier(cold_trace, name, config, None)
            sims += 1
            if identity_tuple(tiered) != identity_tuple(cold_result):
                violations.append(IdentityViolation(
                    workload.name, name, "warm-vs-cold",
                    tiered.kernel, cold_result.kernel,
                    diff_fields(tiered, cold_result)))

    if fused:
        # The exact pool-worker entry point, in-process: one fused unit
        # of every prefetcher cell, its outcomes through the pickle
        # round trip they take from a worker.
        cells = [(workload.name, name, "") for name in prefetchers]
        outcomes, _meta = _simulate_unit((cells, config, 0, None))
        outcomes = pickle.loads(pickle.dumps(outcomes))
        sims += len(cells)
        for (name, outcome) in zip(prefetchers, outcomes):
            if outcome[0] != "ok":
                violations.append(IdentityViolation(
                    workload.name, name, "fused-vs-singleton",
                    "error", singles[name].kernel, [outcome[1]]))
                continue
            fused_result = outcome[1]
            if (identity_tuple(fused_result)
                    != identity_tuple(singles[name])):
                violations.append(IdentityViolation(
                    workload.name, name, "fused-vs-singleton",
                    fused_result.kernel, singles[name].kernel,
                    diff_fields(fused_result, singles[name])))

    return {
        "workload": workload.name,
        "trace_instructions": len(warm),
        "trace_events": len(warm.segment_events()),
        "round_tripped": round_tripped,
        "violations": violations,
        "simulations": sims,
        "kernels": kernels,
    }


def check_mix(workloads, prefetchers, config=None) -> dict:
    """kernel-vs-generic for one multicore mix of ``workloads``.

    Every prefetcher in ``prefetchers`` runs on all cores under
    ``config``; those in :data:`MIX_DROP_PREFETCHERS` run again under
    each drop policy at the drop-policy experiment's queue capacity
    (prefetcher label ``<name>@<policy>``).  Every core's
    :func:`identity_tuple` and the shared DRAM traffic must match the
    ``REPRO_KERNEL=generic`` run.  Returns a summary dict like
    :func:`check_workload`'s, for workload ``mix:<a>+<b>+...``.
    """
    from repro.engine.config import EXPERIMENT_CONFIG
    from repro.engine.kernel import GENERIC
    from repro.experiments.drop_policy import _config_with
    from repro.memory.dram import DropPolicy

    config = config or EXPERIMENT_CONFIG
    label = "mix:" + "+".join(w.name for w in workloads)
    traces = [w.trace() for w in workloads]
    runs = [(name, name, config) for name in prefetchers]
    runs += [(f"{name}@{policy.value}", name, _config_with(policy, config))
             for name in MIX_DROP_PREFETCHERS if name in prefetchers
             for policy in DropPolicy]
    violations: list[IdentityViolation] = []
    kernels: dict[str, int] = {}
    for tag, name, run_config in runs:
        tiered = _simulate_mix(traces, name, run_config, None)
        generic = _simulate_mix(traces, name, run_config, GENERIC)
        for core in tiered.per_core:
            kernels[core.kernel] = kernels.get(core.kernel, 0) + 1
        if mix_identity(tiered) != mix_identity(generic):
            violations.append(IdentityViolation(
                label, tag, "kernel-vs-generic",
                ",".join(core.kernel for core in tiered.per_core),
                GENERIC, _mix_diff(tiered, generic)))

    return {
        "workload": label,
        "violations": violations,
        "simulations": 2 * len(runs),
        "kernels": kernels,
    }


def run_fuzz(seeds: int = DEFAULT_SEEDS, *, stress: bool = True,
             prefetchers=None, config=None, progress=None) -> dict:
    """The full property sweep: stress suite + ``seeds`` fuzzed traces.

    Every workload is checked under every prefetcher in ``prefetchers``
    (default: the whole registry) for the three invariants.  The mix
    leg then runs the fuzzed seeds :data:`MIX_WIDTH` at a time (the
    last mix takes what is left) through :func:`check_mix`; ``mixes``,
    ``mix_kernels`` (per-core variants) and ``mix_seconds`` report it,
    and its violations join the rest.
    Returns a JSON-ready report whose ``violations`` list is empty
    exactly when the property held.
    """
    from repro.prefetcher_registry import available_prefetchers
    from repro.workloads import get_suite

    prefetchers = list(prefetchers) if prefetchers else (
        available_prefetchers())
    workloads: list[Workload] = get_suite("stress") if stress else []
    workloads += [fuzz_workload(s) for s in range(seeds)]

    started = time.perf_counter()
    violations: list[IdentityViolation] = []
    kernels: dict[str, int] = {}
    per_workload = []
    sims = 0
    for i, workload in enumerate(workloads):
        summary = check_workload(workload, prefetchers, config)
        violations += summary["violations"]
        sims += summary["simulations"]
        for variant, count in summary["kernels"].items():
            kernels[variant] = kernels.get(variant, 0) + count
        per_workload.append({**summary,
                             "violations": [v.to_dict() for v in
                                            summary["violations"]]})
        if progress is not None and (i + 1) % 10 == 0:
            progress(f"fuzz: {i + 1}/{len(workloads)} workloads, "
                     f"{sims} simulations, "
                     f"{len(violations)} violations")

    mix_started = time.perf_counter()
    mix_kernels: dict[str, int] = {}
    mixes = range(0, seeds, MIX_WIDTH)
    for start in mixes:
        summary = check_mix(
            [fuzz_workload(s)
             for s in range(start, min(start + MIX_WIDTH, seeds))],
            prefetchers, config)
        violations += summary["violations"]
        sims += summary["simulations"]
        for variant, count in summary["kernels"].items():
            mix_kernels[variant] = mix_kernels.get(variant, 0) + count
    if progress is not None and mixes:
        progress(f"fuzz: {len(mixes)} mixes, {sims} simulations, "
                 f"{len(violations)} violations")
    return {
        "seeds": seeds,
        "stress": stress,
        "invariants": list(INVARIANTS),
        "prefetchers": prefetchers,
        "workloads": len(workloads),
        "cells": len(workloads) * len(prefetchers),
        "simulations": sims,
        "kernels": kernels,
        "mixes": len(mixes),
        "mix_kernels": mix_kernels,
        "seconds": round(time.perf_counter() - started, 3),
        "mix_seconds": round(time.perf_counter() - mix_started, 3),
        "violations": [v.to_dict() for v in violations],
        "per_workload": per_workload,
        "ok": not violations,
    }
