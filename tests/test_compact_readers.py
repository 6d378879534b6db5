"""Differential tests: the readers of a result's compact per-line records
against the readers they replaced.

A :class:`~repro.engine.system.SimulationResult` keeps its miss
footprints, attempted lines and credit log in the compact forms of
:mod:`repro.engine.compact`, and the readers moved to them: scope, the
Fig. 13 and Fig. 14 footprint weights and the credit replay.  The
functions below are the earlier readers, kept verbatim (renamed; the
figure loops lifted out of ``run()`` with their accumulators), as the
reference.  They read the hierarchy's live Counters, sets and tuple
list, captured as the result is built from them, so both sides read
one run.  The integer numerators and denominators, and every
``CreditTracker.buckets`` in insertion order, must be equal, over the
stress suite, fuzz seeds 0-2, ``spec.milc`` and ``spec.mcf``, on the
segmented tier and the generic loop.

The size test bounds what the compact fields keep per entry, where the
tuples and sets they replaced kept about 90 bytes per credit entry and
50-65 bytes per line.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.classify import Category, OfflineClassifier
from repro.analysis.credit import CreditTracker, replay
from repro.analysis.metrics import scope, scope_weights
from repro.engine.config import EXPERIMENT_CONFIG
from repro.engine.kernel import GENERIC, pinned_kernel
from repro.engine.system import SimulationResult, simulate
from repro.experiments import fig13, fig14
from repro.experiments.fig15 import _composite_factory
from repro.experiments.runner import build_prefetcher
from repro.workloads import get_suite, get_workload
from repro.workloads.fuzz import fuzz_workload

EXTRA = "sms"
SPECS = ("none", "tpc", EXTRA, _composite_factory(EXTRA))
"""A baseline, TPC, a monolithic prefetcher (Fig. 13, Fig. 14 alone) and
TPC with it as a component (Fig. 14)."""

BULKY = ("miss_lines_l1", "miss_lines_l2", "attempted_prefetch_lines",
         "attempted_by_component", "credit_log")


# ----------------------------------------------------------------------
# Reference readers
# ----------------------------------------------------------------------
def _parent_scope(result, baseline, level: int = 1) -> float:
    footprint = (
        baseline.miss_lines_l1 if level == 1 else baseline.miss_lines_l2
    )
    total_weight = sum(footprint.values())
    if total_weight == 0:
        return 0.0
    attempted = result.attempted_prefetch_lines
    covered_weight = sum(
        weight for line, weight in footprint.items() if line in attempted
    )
    return covered_weight / total_weight


def _parent_scope_weights(result, baseline, level: int = 1):
    footprint = (
        baseline.miss_lines_l1 if level == 1 else baseline.miss_lines_l2
    )
    total_weight = sum(footprint.values())
    attempted = result.attempted_prefetch_lines
    covered_weight = sum(
        weight for line, weight in footprint.items() if line in attempted
    )
    return covered_weight, total_weight


def _parent_replay(log, tracker) -> None:
    for name, *args in log:
        getattr(tracker, name)(*args)


def _parent_fig13_weights(result, baseline, classifier):
    covered_weight = {c: 0.0 for c in Category}
    footprint_weight = {c: 0.0 for c in Category}
    attempted = result.attempted_prefetch_lines
    for line, weight in baseline.miss_lines_l1.items():
        category = classifier.category(line)
        footprint_weight[category] += weight
        if line in attempted:
            covered_weight[category] += weight
    return covered_weight, footprint_weight


def _parent_fig14_weights(result, baseline, tpc_lines, component_tag):
    covered_weight = 0.0
    footprint_weight = 0.0
    attempted = result.attempted_by_component.get(
        component_tag, set()
    )
    for line, weight in baseline.miss_lines_l1.items():
        if line in tpc_lines:
            continue
        footprint_weight += weight
        if line in attempted:
            covered_weight += weight
    return covered_weight, footprint_weight


# ----------------------------------------------------------------------
# One run, both forms
# ----------------------------------------------------------------------
def _run_both(trace, spec, monkeypatch):
    """One simulation of ``spec``: its result, and the live collections
    the result was built from (the hierarchy's own objects)."""
    live = {}
    build = SimulationResult.__post_init__

    def capture(result):
        live.update((name, getattr(result, name)) for name in BULKY)
        build(result)

    with monkeypatch.context() as patch:
        patch.setattr(SimulationResult, "__post_init__", capture)
        result = simulate(trace, build_prefetcher(spec), EXPERIMENT_CONFIG)
    return result, SimpleNamespace(**live)


WORKLOADS = {w.name: w for w in [*get_suite("stress"),
                                  *map(fuzz_workload, range(3)),
                                  get_workload("spec.milc"),
                                  get_workload("spec.mcf")]}


def _tracked(log, categorize, feed) -> list:
    tracker = CreditTracker(categorize=categorize)
    feed(log, tracker)
    return list(tracker.buckets.items())


@pytest.mark.parametrize("tier", [None, GENERIC],
                         ids=["segmented", "generic"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_readers_match_the_earlier_readers(workload, tier, monkeypatch):
    trace = WORKLOADS[workload].trace()
    with pinned_kernel(tier):
        runs = {spec if isinstance(spec, str) else spec.cache_key:
                _run_both(trace, spec, monkeypatch) for spec in SPECS}
    if tier is None:
        assert runs["tpc"][0].kernel.startswith("segmented+"), workload
    else:
        assert runs["tpc"][0].kernel == GENERIC
    baseline, live_baseline = runs["none"]
    tpc, live_tpc = runs["tpc"]
    classifier = OfflineClassifier(trace)
    masks = fig13.category_masks(classifier, baseline.miss_lines_l1)
    inside = set(live_tpc.attempted_prefetch_lines)
    for key, (result, live) in runs.items():
        where = (workload, tier, key)
        # The compact forms hold what the live collections held.
        assert list(result.credit_log) == live.credit_log, where
        assert dict(result.miss_lines_l1.items()) == live.miss_lines_l1
        assert dict(result.miss_lines_l2.items()) == live.miss_lines_l2
        assert (set(result.attempted_prefetch_lines)
                == live.attempted_prefetch_lines), where
        assert {name: set(lines) for name, lines
                in result.attempted_by_component.items()} \
            == live.attempted_by_component, where
        for level in (1, 2):
            covered, total = scope_weights(result, baseline, level)
            assert (covered, total) == _parent_scope_weights(
                live, live_baseline, level), where
            assert type(covered) is int and type(total) is int
            assert scope(result, baseline, level) == _parent_scope(
                live, live_baseline, level), where
        # Fig. 13: credit by category, footprint weights by category.
        assert (_tracked(result.credit_log, classifier.category, replay)
                == _tracked(live.credit_log, classifier.category,
                            _parent_replay)), where
        parent_covered, parent_total = _parent_fig13_weights(
            live, live_baseline, classifier)
        for category, weights in fig13.category_weights(
                result, baseline, masks).items():
            assert weights == (parent_covered[category],
                               parent_total[category]), (where, category)
        # Fig. 14: credit and footprint outside TPC's lines.
        categorize = fig14._uncovered_categorizer(inside)
        assert (_tracked(result.credit_log, categorize, replay)
                == _tracked(live.credit_log, categorize,
                            _parent_replay)), where
        weights = fig14.uncovered_weights(
            result, baseline, tpc.attempted_prefetch_lines, EXTRA)
        assert weights == _parent_fig14_weights(
            live, live_baseline, inside, EXTRA), where
        assert all(type(w) is int for w in weights)


# ----------------------------------------------------------------------
# What the compact fields keep
# ----------------------------------------------------------------------
def _deep_size(obj, seen=None) -> int:
    """Bytes ``obj`` keeps, counting everything it references once."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, type):
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, np.ndarray):
        # getsizeof counts the data an array owns; a view's lives in
        # its base.
        return size + (0 if obj.base is None
                       else _deep_size(obj.base, seen))
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    else:
        children = [getattr(obj, name) for name in
                    getattr(type(obj), "__slots__", ())
                    if hasattr(obj, name)]
        children += list(getattr(obj, "__dict__", {}).values())
    return size + sum(_deep_size(child, seen) for child in children)


def test_compact_fields_keep_a_few_bytes_per_entry():
    """A ``tpc`` cell on the pollution-heavy ``stress.shadow_mix``: its
    five per-line fields keep at most 16 bytes per credit entry, victim
    and line, fixed costs included.  Tuples and sets kept 50-90."""
    trace = get_workload("stress.shadow_mix").trace()
    result = simulate(trace, build_prefetcher("tpc"), EXPERIMENT_CONFIG)
    log = result.credit_log
    victims = sum(len(entry[2]) for entry in log
                  if entry[0] == "on_pollution")
    assert victims > 100
    entries = (len(log) + victims + len(result.miss_lines_l1)
               + len(result.miss_lines_l2)
               + len(result.attempted_prefetch_lines)
               + sum(map(len, result.attempted_by_component.values())))
    kept = _deep_size([getattr(result, name) for name in BULKY])
    assert kept / entries <= 16, (kept, entries)
