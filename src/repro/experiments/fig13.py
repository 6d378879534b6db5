"""Fig. 13 — effective accuracy and scope by access category
(LHF / MHF / HHF), per prefetcher.

The offline classifier (Sec. V-C1) labels cache lines; every prefetch is
labeled with its target's category and earns +-credits via the
alternative-reality accounting, replayed from each cell's recorded
credit log (the same cells Fig. 8 runs).  Paper observations:

* most prefetches land in LHF, where T2's accuracy stands out;
* monolithic prefetchers have high MHF scope but 32-56% accuracy,
  vs C1's 61%;
* HHF is where accuracies go negative for monolithic designs (best
  average only 38%), while P1 reaches 86% on a limited scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.classify import Category, OfflineClassifier
from repro.analysis.credit import CreditTracker
from repro.analysis.report import format_table
from repro.experiments.runner import ExperimentRunner
from repro.prefetcher_registry import PAPER_MONOLITHIC
from repro.workloads import get_workload, workload_names

PREFETCHERS = PAPER_MONOLITHIC + ["tpc"]

_classifier_cache: dict[str, OfflineClassifier] = {}


def classifier_for(app: str) -> OfflineClassifier:
    classifier = _classifier_cache.get(app)
    if classifier is None:
        classifier = OfflineClassifier(get_workload(app).trace())
        _classifier_cache[app] = classifier
    return classifier


@dataclass
class CategoryRow:
    prefetcher: str
    category: Category
    issued: int
    accuracy: float          # credit-based effective accuracy
    scope: float             # share of this category's miss footprint


def run(runner: ExperimentRunner | None = None,
        apps: list[str] | None = None,
        prefetchers: list[str] | None = None) -> list[CategoryRow]:
    runner = runner or ExperimentRunner()
    apps = apps or workload_names("spec")
    prefetchers = prefetchers or PREFETCHERS
    # Every tracked cell is an ordinary cached cell (a tracker replays
    # its credit log), so they fan out with their baselines.
    runner.prefill([(app, spec) for spec in ["none", *prefetchers]
                    for app in apps])

    rows = []
    for name in prefetchers:
        issued = {c: 0 for c in Category}
        credit = {c: 0.0 for c in Category}
        covered_weight = {c: 0.0 for c in Category}
        footprint_weight = {c: 0.0 for c in Category}
        for app in apps:
            classifier = classifier_for(app)
            tracker = CreditTracker(categorize=classifier.category)
            result = runner.run_tracked(app, name, tracker)
            baseline = runner.baseline(app)
            for category in Category:
                bucket = tracker.bucket(category=category)
                issued[category] += bucket.issued
                credit[category] += bucket.credit
            attempted = result.attempted_prefetch_lines
            for line, weight in baseline.miss_lines_l1.items():
                category = classifier.category(line)
                footprint_weight[category] += weight
                if line in attempted:
                    covered_weight[category] += weight
        for category in Category:
            rows.append(
                CategoryRow(
                    prefetcher=name,
                    category=category,
                    issued=issued[category],
                    accuracy=(
                        credit[category] / issued[category]
                        if issued[category] else 0.0
                    ),
                    scope=(
                        covered_weight[category] / footprint_weight[category]
                        if footprint_weight[category] else 0.0
                    ),
                )
            )
    return rows


def render(rows: list[CategoryRow]) -> str:
    return format_table(
        ["prefetcher", "category", "issued", "credit accuracy", "scope"],
        [
            (r.prefetcher, r.category.value, r.issued, r.accuracy, r.scope)
            for r in rows
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    print(render(run()))
