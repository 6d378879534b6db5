"""Closed-form oracles and metamorphic properties.

Cross-tier identity (``tests/test_kernels.py``, ``repro fuzz``) shows
that the replay paths agree with each other, not that the reference
they share is right.  The oracles here compute a stressor's figures
from its program parameters and the experiment configuration's
geometry alone, and check them on the segmented tier and on the
generic loop.  The metamorphic properties check how figures must move
when the configuration does, over the traces ``repro fuzz`` sweeps:
the stress suite plus fuzz seeds 0-49.
"""

from __future__ import annotations

import dataclasses
import inspect
import random
from collections import Counter

import pytest

from repro.core.composite import CompositePrefetcher
from repro.engine.config import EXPERIMENT_CONFIG
from repro.engine.kernel import GENERIC, pinned_kernel
from repro.engine.system import simulate
from repro.identity import identity_tuple
from repro.isa import Assembler
from repro.prefetcher_registry import available_prefetchers, make_prefetcher
from repro.workloads import get_suite, get_workload, stress
from repro.workloads.builders import Allocator
from repro.workloads.fuzz import fuzz_workload

FUZZ_SEEDS = 50

TIERS = pytest.mark.parametrize("tier", [None, GENERIC],
                                ids=["segmented", "generic"])


def _parameters(stressor) -> dict:
    """A stressor's program parameters: its keyword defaults, which the
    registered workload builds with."""
    return {name: parameter.default for name, parameter
            in inspect.signature(stressor).parameters.items()
            if parameter.kind is parameter.KEYWORD_ONLY}


def _run(workload: str, spec: str, tier):
    """``workload`` under ``spec`` on ``tier`` (``None``: segmented)."""
    with pinned_kernel(tier):
        result = simulate(get_workload(workload).trace(),
                          make_prefetcher(spec))
    assert result.kernel.split("+")[0] == (tier or "segmented")
    return result


# ----------------------------------------------------------------------
# Closed-form oracles
# ----------------------------------------------------------------------
@TIERS
@pytest.mark.parametrize("spec", available_prefetchers())
def test_branch_storm_oracle(spec, tier):
    """Static BTFNT mispredicts every taken forward branch (a zero
    decision bit) and the loop branch once, at the exit; prefetching
    changes neither."""
    p = _parameters(stress.branch_storm)
    decisions = p["decisions"]
    rng = random.Random(p["seed"])
    bits = [int(rng.random() < p["taken_rate"]) for _ in range(decisions)]
    zeros = bits.count(0)
    core = _run("stress.branch_storm", spec, tier).core
    assert core.mispredicts == zeros + 1 == 1506
    assert core.branches == 2 * decisions == 6000
    assert core.loads == decisions
    # Two setup moves; per decision a load, the forward branch, the
    # pointer bump and the loop branch; the taken work on a one bit.
    assert core.instructions == 2 + 4 * decisions + decisions - zeros
    assert core.instructions == 13_497


@TIERS
def test_store_chain_oracle(tier):
    """Every store dirties its line, and each line leaves L1 before its
    next pass: every dirtied line is written back but the last L1-full,
    still resident at the end.  L3 holds the whole set, so no dirty
    line ever reaches DRAM."""
    p = _parameters(stress.store_chain)
    line_bytes = EXPERIMENT_CONFIG.l1d.line_bytes
    l1_lines = EXPERIMENT_CONFIG.l1d.size_bytes // line_bytes
    l3_lines = EXPERIMENT_CONFIG.l3.size_bytes // line_bytes
    assert l1_lines < p["lines"] <= l3_lines
    result = _run("stress.store_chain", "none", tier)
    assert result.l1d.writebacks == p["passes"] * p["lines"] - l1_lines
    assert result.l1d.writebacks == 2_272
    assert result.dram.writes == 0


@TIERS
def test_page_stride_oracle(tier):
    """Each hop is a cold miss at every level, so DRAM sees the hops in
    program order; the row classes follow from ``DramConfig``'s split
    of a line address into channel, bank and row."""
    p = _parameters(stress.page_stride)
    base = stress.page_stride(Assembler(name="oracle"), Allocator())
    dram = EXPERIMENT_CONFIG.dram
    banks = dram.ranks_per_channel * dram.banks_per_rank
    line_bytes = EXPERIMENT_CONFIG.l1d.line_bytes
    open_rows: dict = {}
    classes: Counter = Counter()
    for hop in range(p["touches"]):
        line = (base + hop * p["row_bytes"]) // line_bytes
        channel, rest = line % dram.channels, line // dram.channels
        bank = (channel, rest % banks)
        row = rest // (banks * dram.lines_per_row)
        if bank not in open_rows:
            classes["empty"] += 1
        elif open_rows[bank] == row:
            classes["hit"] += 1
        else:
            classes["conflict"] += 1
        open_rows[bank] = row
    stats = _run("stress.page_stride", "none", tier).dram
    assert stats.reads == p["touches"]
    assert ((stats.row_hits, stats.row_empty, stats.row_conflicts)
            == (classes["hit"], classes["empty"], classes["conflict"])
            == (2_421, 1, 78))


# ----------------------------------------------------------------------
# Metamorphic properties, under ``none``
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traces():
    workloads = get_suite("stress") + [fuzz_workload(seed)
                                       for seed in range(FUZZ_SEEDS)]
    return [workload.trace() for workload in workloads]


@pytest.fixture(scope="module")
def plain(traces):
    """Each trace's ``none`` result under the experiment configuration."""
    return [simulate(trace) for trace in traces]


def _with_l1_ways(ways: int):
    """The experiment configuration with an L1 of as many sets and
    ``ways`` ways."""
    l1 = EXPERIMENT_CONFIG.l1d
    sets = l1.size_bytes // (l1.ways * l1.line_bytes)
    return dataclasses.replace(EXPERIMENT_CONFIG, l1d=dataclasses.replace(
        l1, ways=ways, size_bytes=sets * ways * l1.line_bytes))


def test_l1_ways_never_add_demand_misses(traces, plain):
    """LRU inclusion: at a fixed set count, a wider L1 holds a superset
    of a narrower one's lines, so it never misses more."""
    assert _with_l1_ways(4) == EXPERIMENT_CONFIG
    wider = [_with_l1_ways(8), _with_l1_ways(16)]
    for trace, base in zip(traces, plain):
        misses = [base.l1d.demand_misses] + [
            simulate(trace, config=config).l1d.demand_misses
            for config in wider]
        assert misses == sorted(misses, reverse=True), (trace.name, misses)


def test_slower_dram_never_saves_cycles(traces, plain):
    """Without prefetches, a longer column access only delays fills."""
    dram = EXPERIMENT_CONFIG.dram
    slower = dataclasses.replace(EXPERIMENT_CONFIG, dram=dataclasses.replace(
        dram, t_cas=dram.t_cas + 20))
    for trace, base in zip(traces, plain):
        assert simulate(trace, config=slower).cycles >= base.cycles, (
            trace.name)


def test_empty_composite_equals_none(traces, plain):
    """A composite of no components issues nothing and learns nothing."""
    for trace, base in zip(traces, plain):
        result = simulate(trace, CompositePrefetcher([]))
        assert identity_tuple(result) == identity_tuple(base), trace.name
