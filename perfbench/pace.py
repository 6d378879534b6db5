"""Host-speed sampling, so that a pass's times measure the program rather
than the host it happened to run on.

On a shared host the speed of one CPU drifts by tens of percent from one
second to the next (another tenant on the sibling hyperthread, cache and
memory contention), and a fixed pure-Python loop timed back to back
spreads by about 30% between its quartiles.  Wall and CPU time of a pass
drift the same way; a median over passes does not remove it, because a
run's passes share the host's state of the minute.

``Pace`` samples that speed while the program runs.  Every ``INTERVAL_S``
of process CPU time a ``SIGPROF`` handler runs a fixed calibration slice
(``WorkSlice``: dictionary, ``__slots__`` object and method work in the
simulator's idiom, on a small and on a large working set, independent
of ``src/``) and records how long it took.  The work the program did in
an interval is proportional to the host's speed then, so ``t`` seconds
of program time at sampled slice times ``d_i`` count as
``t * mean(REFERENCE_SLICE_S / d_i)`` seconds on the reference host, on
which the slice takes ``REFERENCE_SLICE_S``.  A faster program lowers
``t`` and leaves the slices alone.

Pool workers forked from a sampled process sample themselves
(``Forks``) and leave their totals in a file when they exit, so
the CPU of every process of a pass is rescaled by its own CPU's speed.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import time
from pathlib import Path

INTERVAL_S = 0.01
"""Process CPU time between two samples."""

REFERENCE_SLICE_S = 0.0007
"""The slice's time on the reference host: about its median inside the
passes on the shared 2-CPU host the bounds were set on (0.65-0.71 ms
by workload), so that rescaled times there read close to raw ones."""


class _Line:
    __slots__ = ("tag", "age")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.age = 0

    def touch(self, now: int) -> int:
        self.age = now
        return self.tag


def _age(line: _Line) -> int:
    return line.age


class WorkSlice:
    """A fixed slice of work, about half a millisecond of pure Python in
    two parts.

    The first runs a 16-set, 4-way LRU cache of ``SMALL`` accesses:
    dictionaries, ``__slots__`` objects and method calls that stay in
    the core's own caches, so it slows with the core (a busy sibling
    hyperthread, a lower clock).  The second looks up ``LARGE`` lines at
    scattered addresses of a table of ``2**TABLE_BITS`` of them (a few
    megabytes, beyond the core's L2), so it slows with the shared cache
    and memory.  The simulator does both kinds of work; on the 2-CPU
    host the benchmark was tuned on, either part alone tracked its speed
    worse than the two together (``README.md``)."""

    SMALL = 150
    LARGE = 300
    TABLE_BITS = 15

    def __init__(self) -> None:
        count = 1 << self.TABLE_BITS
        rng = random.Random(0)
        tags = list(range(count))
        rng.shuffle(tags)
        self.table = {tag * 64: _Line(tag) for tag in tags}
        self.order = [rng.randrange(count) * 64 for _ in range(4096)]
        self.position = 0

    def __call__(self) -> int:
        sets: list[dict] = [{} for _ in range(16)]
        hits = 0
        seen = []
        for i in range(self.SMALL):
            addr = (i * 40503) & 0xFFFF
            ways = sets[addr & 15]
            line = ways.get(addr >> 4)
            if line is None:
                if len(ways) >= 4:
                    del ways[min(ways.values(), key=_age).tag]
                ways[addr >> 4] = line = _Line(addr >> 4)
            else:
                hits += 1
            seen.append(line.touch(i))
        table, order, at = self.table, self.order, self.position
        for i in range(self.LARGE):
            hits += table[order[(at + i) & 4095]].touch(i) & 1
        self.position = (at + self.LARGE) & 4095
        return hits + len(seen)


def process_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Pace:
    """Samples this process's speed; ``totals()`` is cumulative, so a
    span's figures are the difference of two snapshots.  A forked child
    passes its parent's ``work`` rather than building the table again."""

    def __init__(self, work: WorkSlice | None = None) -> None:
        self.work = work or WorkSlice()
        self.samples = 0
        self.spent = 0.0    # seconds inside the slices
        self.speed = 0.0    # sum of REFERENCE_SLICE_S / slice time
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        self.work()
        took = time.perf_counter() - started
        self.samples += 1
        self.spent += took
        self.speed += REFERENCE_SLICE_S / took
        self._busy = False

    def start(self) -> "Pace":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def totals(self) -> list[float]:
        return [self.samples, self.spent, self.speed, process_cpu()]


def span(before: list[float], after: list[float]) -> dict:
    """Figures of one process over a span between two ``totals()``:
    ``cpu`` (all of it), ``spent`` (in slices), ``samples`` and
    ``factor``, the mean speed relative to the reference host (1.0 when
    no sample fell in the span)."""
    samples = after[0] - before[0]
    speed = after[2] - before[2]
    return {"samples": samples, "spent": after[1] - before[1],
            "cpu": after[3] - before[3],
            "factor": speed / samples if samples else 1.0}


def rescale(wall: float, processes: list[dict]) -> dict:
    """Reference-host times of a span of ``wall`` seconds whose processes
    ran as ``processes`` (``span`` figures).

    Each process's program CPU (its CPU less the slices) is rescaled by
    its own speed factor; the wall time loses the slices' share of all
    CPU and is rescaled by the CPU-weighted mean factor."""
    cpu = sum(p["cpu"] for p in processes)
    spent = sum(p["spent"] for p in processes)
    program = sum(max(0.0, p["cpu"] - p["spent"]) for p in processes)
    scaled = sum(max(0.0, p["cpu"] - p["spent"]) * p["factor"]
                 for p in processes)
    factor = scaled / program if program > 0 else 1.0
    share = spent / cpu if cpu > 0 else 0.0
    return {"wall": wall * (1 - share) * factor, "cpu": scaled,
            "factor": factor, "overhead": share,
            "samples": sum(p["samples"] for p in processes)}


# ----------------------------------------------------------------------
# Forked processes
# ----------------------------------------------------------------------
class Forks:
    """The ``multiprocessing`` children forked from this process (pool
    workers), each sampling itself and writing its ``span`` figures to
    ``directory/pace-<pid>.json`` when it exits.

    ``multiprocessing.util.register_after_fork`` runs ``_in_child`` in
    each child after ``multiprocessing`` has cleared the finalizers it
    inherited; ``os.register_at_fork`` counts the forks here, so that a
    child that left no figures shows."""

    def __init__(self, directory: Path, pace: Pace) -> None:
        from multiprocessing import util

        self.directory = Path(directory)
        self.work = pace.work
        self.forked = 0
        util.register_after_fork(self, _in_child)
        os.register_at_fork(after_in_parent=self._count)

    def _count(self) -> None:
        self.forked += 1

    def spans(self) -> list[dict]:
        """The figures of every child that has exited."""
        spans = []
        for path in sorted(self.directory.glob("pace-*.json")):
            with open(path) as handle:
                spans.append(json.load(handle))
        return spans


def _in_child(forks: Forks) -> None:
    from multiprocessing import util

    # A forked child inherits the handler but not the interval timer,
    # and starts with its own rusage at zero.
    pace = Pace(forks.work).start()
    start = pace.totals()
    path = forks.directory / f"pace-{os.getpid()}.json"
    util.Finalize(None, _dump, args=(pace, start, path), exitpriority=100)


def _dump(pace: Pace, start: list[float], path: Path) -> None:
    pace.stop()
    with open(path, "w") as handle:
        json.dump(span(start, pace.totals()), handle)
