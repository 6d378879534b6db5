"""Record the correctness reference for the candidate inputs.

    python3 perfbench/reference.py

Runs one pass of every candidate in ``inputs.json`` (the figure apps,
the credit-tracked apps and the 4-core mixes) and writes each one's
simulation identity tuples and figure digests to ``reference.json``.
Run it only for a change that is meant to alter simulated results; a
speed-up must leave the reference untouched.
"""

from __future__ import annotations

import json
import sys

from run import HERE, Sandbox

KIND_WORKLOAD = {"figs": "figs-cached", "tracked": "figs-tracked",
                 "mixes": "mixes-4core"}


def main() -> int:
    from inputs import as_inputs, candidates, reference_key

    reference = {}
    with Sandbox() as box:
        box.spawn("prepare", "figs-cached", 0)
        for kind, entries in candidates().items():
            for candidate in entries:
                chosen = as_inputs(kind, candidate)
                doc = box.spawn("pass", KIND_WORKLOAD[kind], 0,
                                inputs=chosen)
                if doc["errors"] or doc["trace_builds"]:
                    raise SystemExit(f"{chosen}: errors {doc['errors']}, "
                                     f"{doc['trace_builds']} trace builds")
                print(f"{kind:8s} {json.dumps(chosen)} "
                      f"{doc['wall_s']:7.2f} s", flush=True)
                reference[reference_key(KIND_WORKLOAD[kind], chosen)] = {
                    "cells": doc["cells"], "figures": doc["figures"]}
    with open(HERE / "reference.json", "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
