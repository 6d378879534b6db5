"""Seeded workload inputs: which paper-suite apps or 4-app mixes a run
simulates.

The program only ever receives names.  Each workload draws from a fixed
candidate list in ``inputs.json``; a seed always maps to the same
candidate.  The candidates are paper-suite apps (spec, crono, starbench,
npb) and mixes of them, never ``stress.*`` or ``fuzz.*``.

A change of seed must change which inputs a run sees but not how much
work it does, or the spread over seeds measures the draw instead of the
host.  Two different apps never cost the same (``npb.ep`` and
``spec.gamess`` differ by 16% on the credit-tracked figures once host
speed is factored out), so a seed draws an order, not a set: the
credit-tracked figures run ``npb.ep`` and ``spec.gamess`` in either
order, and the 4-core mixes are the four core placements that rotate
one mix of the four cheapest apps.  No second app comes within 20% of
``npb.ep``'s cost on the cacheable figures, and both together would
leave one pass per run, so ``figs-cached`` (and ``figs-pool``, which
draws what it draws) runs ``npb.ep`` at every seed.  ``inputs.json``
keeps the pass times this choice rests on.  Every candidate has a
correctness reference in ``reference.json`` (``reference.py`` records
it).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
PAPER_SUITES = ("spec", "crono", "starbench", "npb")

KIND = {"figs-cached": "figs", "figs-pool": "figs",
        "figs-tracked": "tracked", "mixes-4core": "mixes"}
"""``figs-pool`` shares ``figs-cached``'s draw: same seed, same apps."""


def candidates() -> dict:
    with open(HERE / "inputs.json") as handle:
        return json.load(handle)["candidates"]


def for_seed(workload: str, seed: int, table: dict | None = None) -> dict:
    """The inputs of ``workload`` at ``seed``."""
    kind = KIND[workload]
    pool = (table or candidates())[kind]
    return as_inputs(kind, random.Random(f"{kind}:{seed}").choice(pool))


def as_inputs(kind: str, candidate: list[str]) -> dict:
    """The inputs of one candidate of ``inputs.json``: a list of apps,
    or for ``mixes`` the apps of one 4-core mix."""
    if kind == "mixes":
        return {"mixes": [list(candidate)]}
    return {"apps": list(candidate)}


def trace_names(chosen: dict) -> list[str]:
    """Every workload trace ``chosen`` simulates, in first-use order."""
    names = list(chosen.get("apps", []))
    for mix in chosen.get("mixes", []):
        names.extend(mix)
    return list(dict.fromkeys(names))


def all_trace_names(table: dict | None = None) -> list[str]:
    """Every trace any seed of any workload can need."""
    table = table or candidates()
    return sorted({name for entries in table.values()
                   for candidate in entries for name in candidate})


def reference_key(workload: str, chosen: dict) -> str:
    """Key of ``chosen`` in ``reference.json`` (shared by both figure
    workloads, whose simulations and figures must agree)."""
    kind = KIND[workload]
    if kind == "mixes":
        return "mixes:" + ";".join("+".join(m) for m in chosen["mixes"])
    return f"{kind}:" + "+".join(chosen["apps"])
