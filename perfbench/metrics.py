"""Metric definitions and the per-layer values of a traced run.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and directions; ``BENCHMARK.json`` lists the same names
(a test keeps them in step).  Which end-to-end metric each layer should
move, and on which workload, is the interaction map in ``README.md``.
"""

from __future__ import annotations

import math

from tracing import BASELINES, CORE, TIERS, tier_of

SECTIONS = ["fig01", "fig08", "fig09", "fig10", "fig12", "fig15", "fig16",
            "ablations", "fig13", "fig14", "fig11_mixes", "drop_policy",
            "warm"]
"""Report sections a pass can time (``passes.py``); ``warm`` is the
re-render of the cacheable sections from the result cache."""

SINGLE_CORE = {"figs-cached", "figs-tracked", "figs-pool"}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}
"""The times are in reference-host seconds (``pace.py``).  Bounds: on
the shared 2-CPU host they were set on, the raw wall time of a run
spread by 7-28% between the quartiles of ten seeds and the rescaled
``wall_s`` and ``cpu_s`` by 3-10% (two sets: ``README.md``).  Since the
host's noise changes from hour to hour and the rescaling narrows it by a
factor, the time bounds sit at the ceiling of 0.25, 2.5 times the widest
spread seen; ``setup_s`` shares the largest bound.  Memory is
deterministic per input and stays tight.  ``failed_frac`` (failed /
attempted, which must be 0) is printed with the others and carried by
the result's ``failed`` and ``attempted`` fields; it is not a timed
metric, so it has no bound."""


def _per_layer() -> dict[str, tuple[str, str]]:
    m: dict[str, tuple[str, str]] = {
        "workloads.trace_load_s": ("s", "lower"),
        "workloads.traces": ("count", "lower"),
        "workloads.trace_builds": ("count", "lower"),
    }
    for section in SECTIONS:
        m[f"experiments.{section}_s"] = ("s", "lower")
    m.update({
        "experiments.self_s": ("s", "lower"),
        "experiments.fresh_cells": ("count", "lower"),
        "experiments.memo_hits": ("count", "higher"),
        "resultcache.put_s": ("s", "lower"),
        "resultcache.puts": ("count", "lower"),
        "resultcache.get_s": ("s", "lower"),
        "resultcache.gets": ("count", "lower"),
        "resultcache.hit_ratio": ("ratio", "higher"),
        "resultcache.bytes": ("bytes", "lower"),
        "engine.simulate_s": ("s", "lower"),
        "engine.simulate_calls": ("count", "lower"),
        "engine.instructions": ("count", "lower"),
    })
    for tier in TIERS:
        m[f"engine.{tier}_cells"] = ("count", "lower")
        m[f"engine.{tier}_s"] = ("s", "lower")
        m[f"engine.{tier}_ips"] = ("1/s", "higher")
    m.update({
        "engine.multicore_s": ("s", "lower"),
        "engine.multicore_calls": ("count", "lower"),
        "engine.multicore_ips": ("1/s", "higher"),
        "engine.self_s": ("s", "lower"),
        "engine.cell_ms.p50": ("ms", "lower"),
        "engine.cell_ms.tail": ("ms", "lower"),
        "engine.cell_ms.tail_pct": ("%", "higher"),
        "engine.cell_ms.cells": ("count", "lower"),
        "memory.demand_access_s": ("s", "lower"),
        "memory.demand_access_calls": ("count", "lower"),
        "memory.prefetch_s": ("s", "lower"),
        "memory.prefetch_calls": ("count", "lower"),
        "memory.dram_s": ("s", "lower"),
        "memory.dram_calls": ("count", "lower"),
        "memory.prefetch_accept_ratio": ("ratio", "higher"),
    })
    for c in CORE:
        m[f"core.{c}_s"] = ("s", "lower")
        m[f"core.{c}_calls"] = ("count", "lower")
    for p in BASELINES:
        m[f"baselines.{p}_s"] = ("s", "lower")
        m[f"baselines.{p}_calls"] = ("count", "lower")
    m.update({
        "analysis.credit_s": ("s", "lower"),
        "analysis.credit_calls": ("count", "lower"),
        "analysis.classify_s": ("s", "lower"),
        "analysis.classify_calls": ("count", "lower"),
        "parallel.run_jobs_s": ("s", "lower"),
        "parallel.cells": ("count", "lower"),
        "parallel.workers": ("count", "higher"),
        "parallel.trace_warm_s": ("s", "lower"),
        "parallel.merge_s": ("s", "lower"),
        "parallel.worker_peak_rss_mb": ("MB", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
        "trace.unaccounted_frac": ("ratio", "lower"),
        "trace.accounted_ratio": ("ratio", "higher"),
    })
    return m


PER_LAYER = _per_layer()


def tail_percentile(values, beyond: int = 10) -> tuple[float, float, int]:
    """``(percentile, value, count beyond)`` for the highest whole
    percentile (nearest rank) that leaves at least ``beyond`` samples
    above it.  Below 20 samples no percentile above the median does, and
    the median stands in: a tail is never taken from below it."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0, 0.0, 0
    for pct in range(99, 50, -1):
        index = _rank(pct, n)
        if n - 1 - index >= beyond:
            return float(pct), ordered[index], n - 1 - index
    index = _rank(50, n)
    return 50.0, ordered[index], n - 1 - index


def _rank(pct: int, n: int) -> int:
    """Nearest-rank index of the ``pct``-th percentile of ``n`` samples."""
    return max(0, math.ceil(pct / 100 * n) - 1)


def median_rank(values) -> float:
    """The nearest-rank median, the same rule the tail uses."""
    ordered = sorted(values)
    return ordered[_rank(50, len(ordered))]


def _corrected(trace: dict, key: str) -> tuple[float, int]:
    """(self seconds, calls) of one span key, zeros when never called.

    The wrapper cost is subtracted per call at one average rate, so a
    key whose calls are mostly dispatch (``Coordinator.route``) can come
    out a hair below zero; it is reported as 0."""
    value = trace["corrected"].get(key)
    return (max(0.0, value[0]), value[1]) if value else (0.0, 0)


def _scale(doc: dict, phase: str, raw: float) -> float:
    """Reference-host seconds per raw second of a pass's ``phase``
    (``setup`` or ``pass``), from its host-speed samples: the same
    rescaling as the end-to-end times, so that spans of a traced pass
    and of the untraced passes around it compare at one host speed."""
    return doc["pace"][phase]["wall"] / raw if raw > 0 else 1.0


def per_layer(untraced: list[dict], traced: dict) -> dict:
    """Every ``PER_LAYER`` value of a traced pass and the untraced passes
    around it: counts come from the first untraced pass, and the untraced
    wall time is their mean.  Every time is in reference-host seconds
    (``pace.py``)."""
    wall = sum(d["pace"]["pass"]["wall"] for d in untraced) / len(untraced)
    untraced = untraced[0]
    tr = traced["trace"]
    scale = _scale(traced, "pass", traced["wall_s"])
    m = {name: 0.0 for name in PER_LAYER}

    load = tr["setup_stats"].get("workloads.trace_load", [0.0, 0, 0])
    m["workloads.trace_load_s"] = ((load[0] - load[1] * tr["c_in"])
                                   * _scale(traced, "setup",
                                            traced["setup_s"]))
    m["workloads.traces"] = untraced["traces_loaded"]
    m["workloads.trace_builds"] = untraced["trace_builds"]

    section_scale = _scale(untraced, "pass", untraced["wall_s"])
    for section, seconds in untraced["sections"].items():
        m[f"experiments.{section}_s"] = seconds * section_scale
    m["experiments.self_s"] = _corrected(tr, "experiments.self")[0]
    m["experiments.fresh_cells"] = (len(untraced["kernels"])
                                    + untraced["mc_runs"])
    m["experiments.memo_hits"] = sum(r["memory_hits"]
                                     for r in untraced["runners"])

    cached = [r for r in untraced["runners"] if r["cached"]]
    m["resultcache.put_s"], _ = _corrected(tr, "resultcache.put")
    m["resultcache.get_s"], _ = _corrected(tr, "resultcache.get")
    m["resultcache.puts"] = sum(r["simulated"] for r in cached)
    m["resultcache.gets"] = sum(r["simulated"] + r["disk_hits"]
                                for r in cached)
    warm = [r for r in cached if r["phase"] == "warm"]
    warm_gets = sum(r["simulated"] + r["disk_hits"] for r in warm)
    m["resultcache.hit_ratio"] = (sum(r["disk_hits"] for r in warm)
                                  / warm_gets if warm_gets else 0.0)
    m["resultcache.bytes"] = untraced["cache_bytes"]

    cells = tr["cells"]
    m["engine.simulate_s"] = sum(c[1] for c in cells)
    m["engine.simulate_calls"] = len(cells)
    m["engine.instructions"] = (untraced["instructions"]
                                + untraced["mc_instructions"])
    for kernel in untraced["kernels"].values():
        m[f"engine.{tier_of(kernel)}_cells"] += 1
    self_total = 0.0
    for tier in TIERS:
        on_tier = [c for c in cells if c[0] == tier]
        seconds = sum(c[1] for c in on_tier)
        m[f"engine.{tier}_s"] = seconds
        m[f"engine.{tier}_ips"] = (sum(c[2] for c in on_tier) / seconds
                                   if seconds > 0 else 0.0)
        self_total += _corrected(tr, f"engine.{tier}")[0]
    mc_self, mc_calls = _corrected(tr, "engine.multicore")
    mc_inclusive = tr["corrected"].get("engine.multicore",
                                       (0.0, 0, 0.0))[2]
    m["engine.multicore_s"] = mc_inclusive
    m["engine.multicore_calls"] = mc_calls
    m["engine.multicore_ips"] = (untraced["mc_instructions"] / mc_inclusive
                                 if mc_inclusive > 0 else 0.0)
    m["engine.self_s"] = self_total + mc_self
    if cells:
        ms = [c[1] * 1000 for c in cells]
        pct, tail, _ = tail_percentile(ms)
        m["engine.cell_ms.p50"] = median_rank(ms)
        m["engine.cell_ms.tail"] = tail
        m["engine.cell_ms.tail_pct"] = pct
        m["engine.cell_ms.cells"] = len(ms)

    for name, key in (("demand_access", "memory.demand_access"),
                      ("prefetch", "memory.prefetch"),
                      ("dram", "memory.dram")):
        m[f"memory.{name}_s"], m[f"memory.{name}_calls"] = _corrected(
            tr, key)
    issued, offered = untraced["accept"]
    m["memory.prefetch_accept_ratio"] = issued / offered if offered else 0.0

    for c in CORE:
        m[f"core.{c}_s"], m[f"core.{c}_calls"] = _corrected(tr, f"core.{c}")
    for p in BASELINES:
        m[f"baselines.{p}_s"], m[f"baselines.{p}_calls"] = _corrected(
            tr, f"baselines.{p}")
    m["analysis.credit_s"], m["analysis.credit_calls"] = _corrected(
        tr, "analysis.credit")
    m["analysis.classify_s"], m["analysis.classify_calls"] = _corrected(
        tr, "analysis.classify")

    m["parallel.run_jobs_s"] = _corrected(tr, "parallel.run_jobs")[0]
    pool = tr["pool"]
    m["parallel.cells"] = sum(row["cells"] for row in pool)
    m["parallel.workers"] = max((row["workers"] for row in pool), default=0)
    m["parallel.trace_warm_s"] = sum(row.get("trace_warm_seconds", 0.0)
                                     for row in pool)
    m["parallel.merge_s"] = sum(row.get("merge_seconds", 0.0)
                                for row in pool)
    m["parallel.worker_peak_rss_mb"] = untraced["worker_peak_rss_mb"]

    corrected_total = sum(v[0] for v in tr["corrected"].values()) * scale
    m["trace.overhead_frac"] = traced["pace"]["pass"]["wall"] / wall - 1
    m["trace.unaccounted_frac"] = 1 - tr["raw_total"] / traced["wall_s"]
    m["trace.accounted_ratio"] = corrected_total / wall

    # The rest of the times are the traced pass's own.
    rescaled = {"workloads.trace_load_s"} | {f"experiments.{section}_s"
                                             for section in SECTIONS}
    for name, (unit, _) in PER_LAYER.items():
        if name in rescaled:
            continue
        if unit in ("s", "ms"):
            m[name] *= scale
        elif unit == "1/s":
            m[name] /= scale
    return m

