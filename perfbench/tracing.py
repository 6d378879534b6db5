"""Per-layer self-time tracing, installed from outside the program.

The traced run wraps the public entry points of each layer at class or
module level before any prefetcher is built (``CompositePrefetcher`` and
``Coordinator`` bind component methods at construction, and
``Hierarchy`` has ``__slots__``, so instance-level wrapping would miss
calls).  Each wrapper keeps a frame on a stack; a call's self time is
its duration minus the time spent in wrapped calls it made.

Wrapping adds a roughly constant cost per call.
:func:`calibrate_in_situ` measures it on a real simulation, and
:func:`calibrate` (a no-op) splits it into the part that lands inside
the wrapped call's own interval (``c_in``) and the part its caller sees
(``c_out``); :meth:`Tracer.corrected` subtracts both.

Never wrapped: ``CompositePrefetcher``'s own forwarders (the segmented
tier devirtualizes exactly those) and any hook a class inherits from the
``Prefetcher`` base (the kernels read "not overridden" as "no hook").
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

HOOKS = ("observe_instruction", "observe_access", "on_access", "on_fill",
         "on_prefetch_hit", "claims")
CORE = ("t2", "p1", "c1", "coordinator", "sit", "taint")
BASELINES = ("ghb", "fdp", "vldp", "spp", "bop", "ampm", "sms")
TIERS = ("batch", "segmented", "scalar", "generic")


def tier_of(kernel: str) -> str:
    """Replay tier of a ``SimulationResult.kernel`` variant name."""
    head = kernel.split("+", 1)[0]
    return {"fast": "scalar"}.get(head, head)


_WRAPPER = """
def make(_fn, _acc, _ct, _cn, _nest, _depth, _clock):
    def wrapper({params}):
        _d = _depth[0] + 1
        _depth[0] = _d
        _ct[_d] = 0.0
        _cn[_d] = 0
        _nest[_d] = 0
        _t0 = _clock()
        try:
            return _fn({args})
        finally:
            _dur = _clock() - _t0
            _depth[0] = _d - 1
            _ct[_d - 1] += _dur
            _cn[_d - 1] += 1
            _nest[_d - 1] += _nest[_d] + 1
            _acc[0] += _dur - _ct[_d]
            _acc[1] += 1
            _acc[2] += _cn[_d]
            _acc[3] += _dur
            _acc[4] += _nest[_d]
    return wrapper
"""


def _signature_source(fn) -> tuple[str, str]:
    """``(parameter list, call arguments)`` that forward every argument of
    ``fn`` unchanged, so a wrapper needs no ``*args``/``**kwargs``
    packing on the hot path (defaults are copied over separately)."""
    params, args = [], []
    star = False
    for p in inspect.signature(fn).parameters.values():
        default = "" if p.default is p.empty else "=None"
        if p.kind is p.VAR_POSITIONAL:
            params.append(f"*{p.name}")
            args.append(f"*{p.name}")
            star = True
        elif p.kind is p.VAR_KEYWORD:
            params.append(f"**{p.name}")
            args.append(f"**{p.name}")
        elif p.kind is p.KEYWORD_ONLY:
            if not star:
                params.append("*")
                star = True
            params.append(p.name + default)
            args.append(f"{p.name}={p.name}")
        else:
            params.append(p.name + default)
            args.append(p.name)
    return ", ".join(params), ", ".join(args)


class Tracer:
    """Aggregated spans.  Per key: raw self seconds, calls, direct child
    calls, raw inclusive seconds and wrapped calls nested beneath.

    The call stack lives in preallocated per-depth arrays (child
    seconds, direct child calls, nested calls), so a wrapped call
    allocates nothing the garbage collector tracks."""

    MAX_DEPTH = 256

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.depth = [0]
        self.ct = [0.0] * self.MAX_DEPTH
        self.cn = [0] * self.MAX_DEPTH
        self.nest = [0] * self.MAX_DEPTH
        # Per simulate call: (tier, seconds, nested calls, instructions).
        self.cells: list[tuple] = []
        self.pool_rows: list[dict] = []  # run_jobs timings per call
        self.c_in = 0.0
        self.c_out = 0.0
        self.patches: list[tuple] = []  # (owner, attr, original, wrapper)

    def patch(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, getattr(owner, attr), wrapper))
        setattr(owner, attr, wrapper)

    def suspend(self) -> None:
        """Put every original back (wrappers stay ready for resume)."""
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)

    def resume(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def _acc(self, key: str) -> list:
        acc = self.stats.get(key)
        if acc is None:
            acc = self.stats[key] = [0.0, 0, 0, 0.0, 0]
        return acc

    def reset(self) -> None:
        """Zero every span (wrappers keep their accumulators)."""
        for acc in self.stats.values():
            acc[:] = [0.0, 0, 0, 0.0, 0]
        self.depth[0] = 0
        self.ct[0] = 0.0
        self.cn[0] = 0
        self.nest[0] = 0
        self.cells.clear()
        self.pool_rows.clear()

    def wrap(self, fn, key: str):
        """``fn`` timed under ``key``, with ``fn``'s exact signature."""
        params, args = _signature_source(fn)
        namespace: dict = {}
        exec(_WRAPPER.format(params=params, args=args), namespace)
        wrapper = namespace["make"](fn, self._acc(key), self.ct, self.cn,
                                    self.nest, self.depth,
                                    time.perf_counter)
        wrapper.__defaults__ = fn.__defaults__
        wrapper.__kwdefaults__ = fn.__kwdefaults__
        return functools.wraps(fn)(wrapper)

    def wrap_simulate(self, fn):
        """``simulate`` keyed ``engine.<tier>`` by the replay tier its
        result reports, keeping each cell's time for percentiles."""
        depth, ct, cn, nest = self.depth, self.ct, self.cn, self.nest
        clock = time.perf_counter
        cells = self.cells

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            d = depth[0] + 1
            depth[0] = d
            ct[d], cn[d], nest[d] = 0.0, 0, 0
            t0 = clock()
            tier = "generic"
            instructions = 0
            try:
                result = fn(*args, **kwargs)
                tier = tier_of(result.kernel)
                instructions = result.core.instructions
                return result
            finally:
                dur = clock() - t0
                depth[0] = d - 1
                ct[d - 1] += dur
                cn[d - 1] += 1
                nest[d - 1] += nest[d] + 1
                acc = self._acc(f"engine.{tier}")
                acc[0] += dur - ct[d]
                acc[1] += 1
                acc[2] += cn[d]
                acc[3] += dur
                acc[4] += nest[d]
                cells.append((tier, dur, nest[d], instructions))

        return wrapper

    def call(self, key: str, fn, *args, **kwargs):
        """Run ``fn`` as one span under ``key`` (benchmark-side spans)."""
        return self.wrap(fn, key)(*args, **kwargs)

    # ------------------------------------------------------------------
    def corrected(self) -> dict[str, tuple[float, int, float]]:
        """Per key: (self seconds, calls, inclusive seconds), each minus
        the wrapper cost it absorbed."""
        total = self.c_in + self.c_out
        return {
            key: (raw - calls * self.c_in - children * self.c_out, calls,
                  inclusive - calls * self.c_in - nested * total)
            for key, (raw, calls, children, inclusive, nested)
            in self.stats.items()
        }

    def cell_seconds(self) -> list[tuple[str, float, int]]:
        """Per simulate call: (tier, corrected inclusive seconds,
        instructions)."""
        total = self.c_in + self.c_out
        return [(tier, dur - self.c_in - nested * total, instructions)
                for tier, dur, nested, instructions in self.cells]

    def raw_total(self) -> float:
        """Raw self seconds summed over every span."""
        return sum(acc[0] for acc in self.stats.values())


class _Probe:
    def hook(self, line, level):
        return None


def calibrate(rounds: int = 7, n: int = 100_000) -> tuple[float, float]:
    """Median per-call wrapper cost ``(c_in, c_out)`` in seconds, measured
    on a two-argument no-op method like the prefetcher hooks.

    ``c_in`` is what a wrapped no-op's own span records beyond the
    no-op's plain call time; ``c_out`` is the rest of the wrapped call's
    extra cost, which lands in the caller's self time.
    """
    clock = time.perf_counter
    probe = _Probe()
    plain = probe.hook
    c_in, c_total = [], []
    for _ in range(rounds):
        tracer = Tracer()
        wrapped = tracer.wrap(_Probe.hook, "probe").__get__(probe)
        t0 = clock()
        for _ in range(n):
            plain(1, 2)
        base = (clock() - t0) / n
        t0 = clock()
        for _ in range(n):
            wrapped(1, 2)
        c_total.append((clock() - t0) / n - base)
        c_in.append(tracer.stats["probe"][0] / n - base)
    inside = max(0.0, statistics.median(c_in))
    return inside, max(0.0, statistics.median(c_total) - inside)


def calibrate_in_situ(tracer: Tracer, cell, reps: int, measure,
                      micro: tuple[float, float]) -> tuple[float, float]:
    """Per-call wrapper cost ``(c_in, c_out)`` measured on a real cell.

    A no-op in a tight loop stays in the processor's caches and
    underestimates what a wrapper costs among the simulator's own work,
    so the total per-call cost comes from running ``cell`` (a warm
    simulation of the pass's own inputs) with the wrappers suspended and
    then installed, ``reps`` times in alternation, each run's seconds
    taken by ``measure(cell)`` (at a reference host speed, so that a
    drift in host speed between the runs cancels); only the split
    between ``c_in`` and ``c_out`` comes from ``micro``, the
    :func:`calibrate` result in the same seconds.  Run after the pass:
    the spans recorded so far are kept.
    """
    saved = {key: list(acc) for key, acc in tracer.stats.items()}
    saved_cells = list(tracer.cells)
    saved_rows = list(tracer.pool_rows)
    extra = []
    calls = 0
    for _ in range(reps):
        tracer.suspend()
        try:
            plain = measure(cell)
        finally:
            tracer.resume()
        tracer.reset()
        extra.append(measure(cell) - plain)
        calls = sum(acc[1] for acc in tracer.stats.values())
    tracer.reset()
    for key, acc in saved.items():
        tracer.stats[key][:] = acc
    tracer.cells[:] = saved_cells
    tracer.pool_rows[:] = saved_rows

    inside, outside = micro
    micro = inside + outside
    total = (max(micro, statistics.median(extra) / calls) if calls
             else micro)
    share = inside / micro if micro else 0.0
    return total * share, total * (1 - share)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _wrap_methods(tracer: Tracer, cls, names, key: str) -> None:
    """Wrap the plain functions ``cls`` itself defines among ``names``."""
    for name in names:
        fn = cls.__dict__.get(name)
        if callable(fn) and not isinstance(fn, (staticmethod, classmethod)):
            tracer.patch(cls, name, tracer.wrap(fn, key))


def _patch_module_refs(tracer: Tracer, original, replacement) -> None:
    """Rebind every ``repro`` module global that names ``original``
    (figure modules import ``simulate`` and ``simulate_multicore`` by
    name, so patching the defining module alone would miss them)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                tracer.patch(module, attr, replacement)


def install(tracer: Tracer, layers: set[str]) -> None:
    """Wrap the entry points of ``layers`` (a subset of ``workloads``,
    ``resultcache``, ``parallel``, ``engine``, ``memory``, ``core``,
    ``baselines``, ``analysis``).  Call after importing the modules the
    pass uses and before building any prefetcher."""
    import repro.experiments.runner  # noqa: F401  (binds simulate by name)
    from repro.workloads.registry import Workload

    if "workloads" in layers:
        _wrap_methods(tracer, Workload, ["trace"], "workloads.trace_load")
    if "resultcache" in layers:
        from repro.resultcache import ResultCache

        _wrap_methods(tracer, ResultCache, ["get"], "resultcache.get")
        _wrap_methods(tracer, ResultCache, ["put"], "resultcache.put")
    if "parallel" in layers:
        import repro.parallel as parallel

        original = parallel.run_jobs

        def run_jobs(*args, **kwargs):
            if kwargs.get("timings") is None:
                kwargs["timings"] = {}
            timings = kwargs["timings"]
            results = original(*args, **kwargs)
            tracer.pool_rows.append({"cells": len(results),
                                     "workers": parallel.pool_workers(),
                                     **timings})
            return results

        _patch_module_refs(tracer, original,
                           tracer.wrap(run_jobs, "parallel.run_jobs"))
    if "engine" in layers:
        from repro.engine import multicore, system

        _patch_module_refs(tracer, system.simulate,
                           tracer.wrap_simulate(system.simulate))
        _patch_module_refs(
            tracer, multicore.simulate_multicore,
            tracer.wrap(multicore.simulate_multicore, "engine.multicore"))
    if "memory" in layers:
        from repro.memory.dram import Dram
        from repro.memory.hierarchy import Hierarchy

        _wrap_methods(tracer, Hierarchy, ["demand_access"],
                      "memory.demand_access")
        _wrap_methods(tracer, Hierarchy, ["prefetch"], "memory.prefetch")
        _wrap_methods(tracer, Dram, ["read", "write"], "memory.dram")
    if "core" in layers:
        from repro.core.c1 import C1Prefetcher
        from repro.core.coordinator import Coordinator
        from repro.core.p1 import P1Prefetcher
        from repro.core.sit import SitEntry, StrideIdentifierTable
        from repro.core.t2 import T2Prefetcher
        from repro.core.taint import TaintUnit

        _wrap_methods(tracer, T2Prefetcher, HOOKS, "core.t2")
        _wrap_methods(tracer, P1Prefetcher, HOOKS, "core.p1")
        _wrap_methods(tracer, C1Prefetcher, HOOKS, "core.c1")
        _wrap_methods(tracer, Coordinator, ["route"], "core.coordinator")
        _wrap_methods(tracer, StrideIdentifierTable,
                      ["state_of", "set_state", "get", "allocate", "drop"],
                      "core.sit")
        _wrap_methods(tracer, SitEntry, ["observe"], "core.sit")
        _wrap_methods(tracer, TaintUnit, ["arm", "is_tainted", "observe"],
                      "core.taint")
    if "baselines" in layers:
        from repro.baselines.ampm import AmpmPrefetcher
        from repro.baselines.bop import BopPrefetcher
        from repro.baselines.fdp import FdpPrefetcher
        from repro.baselines.ghb import GhbPcDcPrefetcher
        from repro.baselines.sms import SmsPrefetcher
        from repro.baselines.spp import SppPrefetcher
        from repro.baselines.vldp import VldpPrefetcher

        for name, cls in (("ghb", GhbPcDcPrefetcher), ("fdp", FdpPrefetcher),
                          ("vldp", VldpPrefetcher), ("spp", SppPrefetcher),
                          ("bop", BopPrefetcher), ("ampm", AmpmPrefetcher),
                          ("sms", SmsPrefetcher)):
            _wrap_methods(tracer, cls, HOOKS, f"baselines.{name}")
    if "analysis" in layers:
        from repro.analysis.classify import OfflineClassifier
        from repro.analysis.credit import CreditTracker

        _wrap_methods(tracer, CreditTracker,
                      ["on_prefetch_issued", "on_useful", "on_pollution"],
                      "analysis.credit")
        _wrap_methods(tracer, OfflineClassifier, ["__init__"],
                      "analysis.classify")
