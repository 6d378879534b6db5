"""Fig. 14 — existing prefetchers working alone vs as a component added
to TPC, measured *inside the region TPC does not cover*.

Paper result: in every case the existing prefetcher's effective accuracy
in the uncovered region improves when used as a component (e.g. SMS: 27%
alone -> 43% as component), because division of labor frees its capacity
from the accesses TPC already handles.

Credits are replayed from cached cells' credit logs: the "alone" runs
are Fig. 8 cells and the "component" runs Fig. 15's ``tpc+<extra>``
composites.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.credit import CreditTracker
from repro.analysis.report import format_table
from repro.experiments.fig15 import _composite_factory
from repro.experiments.runner import ExperimentRunner
from repro.workloads import workload_names

EXTRAS = ["vldp", "spp", "fdp", "sms"]

_OUT = "outside-tpc"
_IN = "inside-tpc"


@dataclass
class Fig14Row:
    prefetcher: str
    mode: str                 # "alone" or "component"
    accuracy: float           # credit accuracy in the uncovered region
    scope: float              # share of the uncovered footprint attempted
    issued: int


def _uncovered_categorizer(tpc_attempted: set[int]):
    def categorize(line: int) -> str:
        return _IN if line in tpc_attempted else _OUT

    return categorize


def run(runner: ExperimentRunner | None = None,
        apps: list[str] | None = None,
        extras: list[str] | None = None) -> list[Fig14Row]:
    runner = runner or ExperimentRunner()
    apps = apps or workload_names("spec")
    extras = extras or EXTRAS
    # Every cell below, tracked or not, is cached, so they all fan out.
    runner.prefill(
        [(app, spec) for spec in ["tpc", "none"] for app in apps]
        + [(app, spec) for extra in extras
           for spec in (extra, _composite_factory(extra)) for app in apps]
    )

    # The region TPC does not cover, per app.
    uncovered: dict[str, set[int]] = {}
    for app in apps:
        tpc_result = runner.run(app, "tpc")
        uncovered[app] = tpc_result.attempted_prefetch_lines

    rows = []
    for extra in extras:
        for mode in ("alone", "component"):
            credit = 0.0
            issued = 0
            covered_weight = 0.0
            footprint_weight = 0.0
            for app in apps:
                categorize = _uncovered_categorizer(uncovered[app])
                tracker = CreditTracker(categorize=categorize)
                if mode == "alone":
                    spec = extra
                else:
                    spec = _composite_factory(extra)
                component_tag = extra
                result = runner.run_tracked(app, spec, tracker)
                bucket = tracker.bucket(component=component_tag,
                                        category=_OUT)
                credit += bucket.credit
                issued += bucket.issued
                attempted = result.attempted_by_component.get(
                    component_tag, set()
                )
                baseline = runner.baseline(app)
                tpc_lines = uncovered[app]
                for line, weight in baseline.miss_lines_l1.items():
                    if line in tpc_lines:
                        continue
                    footprint_weight += weight
                    if line in attempted:
                        covered_weight += weight
            rows.append(
                Fig14Row(
                    prefetcher=extra,
                    mode=mode,
                    accuracy=credit / issued if issued else 0.0,
                    scope=(
                        covered_weight / footprint_weight
                        if footprint_weight else 0.0
                    ),
                    issued=issued,
                )
            )
    return rows


def render(rows: list[Fig14Row]) -> str:
    return format_table(
        ["prefetcher", "mode", "accuracy (uncovered)", "scope (uncovered)",
         "issued"],
        [(r.prefetcher, r.mode, r.accuracy, r.scope, r.issued)
         for r in rows],
    )


if __name__ == "__main__":  # pragma: no cover
    print(render(run()))
