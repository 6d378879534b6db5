"""One fresh benchmark process: set up, then run one pass.

Started by ``run.py``; not meant to be run by hand.  Writes one JSON
document to ``--out``.  Set-up time is measured from ``--t0``, the
parent's monotonic clock just before it started this process, so it
includes interpreter start, importing ``repro``, generating the seeded
inputs and loading every needed trace and its record views from the
trace cache.  The pass that follows is what a ``repro report`` process
pays for the same sections: kernel compiles, plan builds and a cold
result cache included.  A pass samples the host's speed (``pace.py``)
from its first line on, in every pool worker too, and reports its times
rescaled to the reference host beside the raw ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _layers(workload: str) -> set[str]:
    if workload == "figs-pool":
        # Cells run inside the workers; wrapping the engine there would
        # only slow them while reporting nothing back.
        return {"workloads", "resultcache", "parallel"}
    return {"workloads", "resultcache", "parallel", "engine", "memory",
            "core", "baselines", "analysis"}


def prepare(names: list[str]) -> dict:
    """Build every missing trace into the trace cache (untimed: users pay
    trace builds once per builder version) and return the run stamp."""
    import os
    import platform

    import numpy
    from repro.isa.trace import compile_trace
    from repro.resultcache import code_version
    from repro.workloads import get_workload
    from repro.workloads.tracecache import (
        TRACE_CACHE_VERSION,
        TraceCache,
        trace_code_version,
    )

    cache = TraceCache()
    built = 0
    for name in names:
        workload = get_workload(name)
        if not cache.entry_path(name, workload.simpoint).exists():
            cache.put(compile_trace(workload.object_trace()),
                      workload.simpoint)
            built += 1
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "code_version": code_version(),
            "trace_code_version": trace_code_version(),
            "trace_cache_format": TRACE_CACHE_VERSION,
            "traces_built_in_prepare": built}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["prepare", "pass"],
                        required=True)
    parser.add_argument("--inputs", help="explicit inputs (JSON) instead "
                        "of the seed's draw")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.mode == "pass":
        import pace as pace_module

        pace = pace_module.Pace().start()
        at_start = pace.totals()
        forks_dir = Path(args.out).with_suffix(".pace")
        forks_dir.mkdir()
        forks = pace_module.Forks(forks_dir, pace)

    import inputs
    import passes
    from repro.workloads import get_workload
    from repro.workloads.tracecache import trace_counters

    if args.mode == "prepare":
        names = (inputs.trace_names(json.loads(args.inputs)) if args.inputs
                 else inputs.all_trace_names())
        _write(args.out, {"stamp": prepare(names)})
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, _layers(args.workload))
    chosen = (json.loads(args.inputs) if args.inputs
              else inputs.for_seed(args.workload, args.seed))
    for name in inputs.trace_names(chosen):
        get_workload(name).trace().records  # materialize the views
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "inputs": chosen}
    at_setup = pace.totals()

    if tracer is not None:
        setup_stats = {k: list(v) for k, v in tracer.stats.items()}
        tracer.reset()
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    record = passes.run_pass(args.workload, chosen, tracer)
    wall_s = time.perf_counter() - started
    from repro.parallel import shutdown_pool

    shutdown_pool()
    cpu_s = (_cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
             - cpu0)
    at_end = pace.totals()
    in_pass = pace_module.span(at_setup, at_end)
    workers = forks.spans()
    out["pace"] = {
        "setup": pace_module.rescale(
            setup_s, [pace_module.span(at_start, at_setup)]),
        "pass": pace_module.rescale(wall_s, [in_pass] + workers),
        "unsampled_forks": forks.forked - len(workers),
    }
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
    # reaped child (a pool worker, once shutdown_pool has joined them).
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    counts = trace_counters()
    out.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss,
        "worker_peak_rss_mb": child_rss if args.workload == "figs-pool"
        else 0.0,
        "sections": record.sections,
        "cells": record.cells,
        "kernels": record.kernels,
        "figures": record.figures,
        "errors": record.errors,
        "instructions": record.instructions,
        "mc_instructions": record.mc_instructions,
        "mc_runs": record.mc_runs,
        "accept": record.accept,
        "cache_bytes": record.cache_bytes,
        "runners": [dict(r.counters, phase=r.phase,
                         cached=r.disk is not None)
                    for r in record.runners],
        "trace_builds": counts["builds"],
        "traces_loaded": counts["disk_hits"],
    })
    if tracer is not None:
        # The wrapper cost is measured in reference-host seconds, then
        # put in the pass's own seconds, which its spans are counted in.
        def rescaled(fn):
            before = pace.totals()
            started = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - started
            return result, wall, pace_module.rescale(
                wall, [pace_module.span(before, pace.totals())])["wall"]

        def measure(fn) -> float:
            return rescaled(fn)[2]

        (inside, outside), wall, ref = rescaled(tracing.calibrate)
        micro = (inside * ref / wall, outside * ref / wall)
        if args.workload == "figs-pool":
            c_in, c_out = micro
        else:
            # One repetition of the 4-core cell already runs seconds; a
            # single-core cell runs a tenth of one, too few speed
            # samples to rescale one run well, so the median is over
            # more of them.
            c_in, c_out = tracing.calibrate_in_situ(
                tracer, passes.calibration_cell(args.workload, chosen),
                reps=1 if args.workload == "mixes-4core" else 9,
                measure=measure, micro=micro)
        to_pass = wall_s / out["pace"]["pass"]["wall"]
        tracer.c_in, tracer.c_out = c_in * to_pass, c_out * to_pass
        out["trace"] = {
            "c_in": tracer.c_in,
            "c_out": tracer.c_out,
            "setup_stats": setup_stats,
            "corrected": tracer.corrected(),
            "cells": tracer.cell_seconds(),
            "pool": tracer.pool_rows,
            "raw_total": tracer.raw_total(),
        }
    pace.stop()
    _write(args.out, out)
    return 0


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle)


if __name__ == "__main__":
    sys.exit(main())
