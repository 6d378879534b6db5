"""Steadiness summary over saved results of one commit.

    python3 perfbench/spread.py results/*.json

Reads files written by ``run.py --save`` and prints, per workload and
end-to-end metric, the number of runs, the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median, beside the metric's bound and whether
the spread is within a third of it.  Refuses to mix results stamped
with different git SHAs or code versions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

from metrics import END_TO_END


def load(paths: list[str]) -> list[dict]:
    docs = []
    for path in paths:
        with open(path) as handle:
            docs.append(json.load(handle))
    return docs


def summarize(docs: list[dict]) -> list[dict]:
    """One row per (workload, end-to-end metric) with quartile spread."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for doc in docs:
        if doc.get("trace"):
            continue
        for name, metric in doc["metrics"].items():
            if name in END_TO_END:
                values[(doc["workload"], name)].append(metric["value"])
    rows = []
    for (workload, name), vals in sorted(values.items()):
        median = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / median if median else float("nan")
        bound = END_TO_END[name][2]
        rows.append({"workload": workload, "metric": name, "n": len(vals),
                     "median": median, "q1": q1, "q3": q3,
                     "spread": spread, "bound": bound,
                     "steady": spread <= bound / 3})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    docs = load(args.files)
    stamps = {(d["stamp"].get("git_sha"), d["stamp"].get("code_version"))
              for d in docs}
    if len(stamps) > 1:
        print(f"results come from {len(stamps)} different builds: "
              f"{sorted(stamps)}", file=sys.stderr)
        return 1
    failed = [d for d in docs if d["failed"]]
    print(f"{len(docs)} result(s), {len(failed)} with failures")
    print(f"{'workload':14s} {'metric':12s} {'n':>3s} {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for row in summarize(docs):
        mark = "" if row["steady"] or row["metric"] == "setup_s" else \
            "  > bound/3"
        print(f"{row['workload']:14s} {row['metric']:12s} {row['n']:3d} "
              f"{row['median']:10.4f} {row['q1']:10.4f} {row['q3']:10.4f} "
              f"{row['spread']:7.2%} {row['bound']:6.2f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
