"""The paper's evaluation metrics (Sec. III).

All functions take the prefetcher run and the matching no-prefetch
baseline run of the *same trace*; the observation window is the whole run
(one "simpoint").
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.engine.system import SimulationResult


def scope(result: SimulationResult, baseline: SimulationResult,
          level: int = 1) -> float:
    """Prefetching scope ``S(P)`` (Sec. III).

    The fraction of the baseline miss footprint *attempted* by the
    prefetcher, weighted by per-line miss counts:

    ``S(P) = sum_{A_j in FP ∩ PFP} W_j / sum_{A_i in FP} W_i``
    """
    covered_weight, total_weight = scope_weights(result, baseline, level)
    if total_weight == 0:
        return 0.0
    return covered_weight / total_weight


def scope_weights(result: SimulationResult, baseline: SimulationResult,
                  level: int = 1) -> tuple[int, int]:
    """:func:`scope`'s numerator and denominator, as integers."""
    footprint = (
        baseline.miss_lines_l1 if level == 1 else baseline.miss_lines_l2
    )
    covered = result.attempted_prefetch_lines.mask(footprint.lines)
    return footprint.weight(covered), footprint.total()


def effective_accuracy(result: SimulationResult,
                       baseline: SimulationResult,
                       level: int = 1) -> float:
    """Misses avoided per prefetch issued (Sec. III).

    Negative when prefetching *causes* more misses than it removes —
    unlike the conventional accuracy metric, pollution is fully charged.
    """
    issued = result.prefetch.issued
    if issued == 0:
        return 0.0
    if level == 1:
        avoided = baseline.l1d.demand_misses - result.l1d.demand_misses
    else:
        avoided = baseline.l2.demand_misses - result.l2.demand_misses
    return avoided / issued


def effective_coverage(result: SimulationResult,
                       baseline: SimulationResult,
                       level: int = 1) -> float:
    """Percentage reduction of misses from engaging the prefetcher
    (Sec. V-C1, Fig. 12)."""
    if level == 1:
        base = baseline.l1d.demand_misses
        now = result.l1d.demand_misses
    else:
        base = baseline.l2.demand_misses
        now = result.l2.demand_misses
    if base == 0:
        return 0.0
    return (base - now) / base


def traffic_overhead(result: SimulationResult,
                     baseline: SimulationResult) -> float:
    """Memory traffic normalized to the no-prefetch baseline (Fig. 9)."""
    if baseline.dram_traffic == 0:
        return 1.0
    return result.dram_traffic / baseline.dram_traffic


def speedup(result: SimulationResult, baseline: SimulationResult) -> float:
    """Cycles(baseline) / cycles(prefetcher)."""
    if result.cycles == 0:
        return 0.0
    return baseline.cycles / result.cycles


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's suite-wide summary statistic)."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def weighted_average(pairs: Iterable[tuple[float, float]]) -> float:
    """Weighted average of (value, weight) pairs (MPKI-weighted suite
    summaries in Fig. 10/12)."""
    total_weight = 0.0
    total = 0.0
    for value, weight in pairs:
        total += value * weight
        total_weight += weight
    if total_weight == 0:
        return 0.0
    return total / total_weight
