"""Pool-utilization and straggler attribution from fabric spans.

Turns a sweep's span stream into the report that makes a
``parallel.speedup_vs_serial: 0.82`` diagnosable: per-worker busy/idle
seconds and idle fraction, fused-unit imbalance (the max/mean unit
duration ratio — a high value means one unit strangled the sweep while
its lane-mates idled), per-worker executed steals (units a lane took
from another workload's queue — the work-stealing scheduler's
rebalancing, see :mod:`repro.parallel.stealing`), and the critical-path
cell (the single longest cell attempt, with its kernel variant).
Consumed by ``repro trace``, ``repro bench``'s parallel section, and
tests.
"""

from __future__ import annotations


def pool_report(records: list) -> dict:
    """Utilization/straggler summary over span records (dicts, as read
    from ``spans.jsonl`` or produced by ``FabricObs.records()``)."""
    sweep = next((r for r in records if r.get("kind") == "sweep"), None)
    units = [r for r in records if r.get("kind") == "unit"]
    cells = [r for r in records if r.get("kind") == "cell"]

    if sweep is not None:
        wall = sweep.get("seconds", 0.0)
    elif records:
        starts = [r.get("start", 0.0) for r in records]
        ends = [r.get("start", 0.0) + r.get("seconds", 0.0) for r in records]
        wall = max(ends) - min(starts)
    else:
        wall = 0.0

    workers: dict[str, dict] = {}
    serial_units = []
    for unit in units:
        lane = unit.get("worker", 0)
        if lane <= 0:
            serial_units.append(unit)
            continue
        entry = workers.setdefault(str(lane), {"busy_seconds": 0.0,
                                               "units": 0, "cells": 0,
                                               "steals": 0})
        entry["busy_seconds"] += unit.get("seconds", 0.0)
        entry["units"] += 1
        entry["cells"] += unit.get("cells", 1)
        if unit.get("stolen"):
            entry["steals"] += 1
    mode = "pool" if workers else "serial"
    if not workers:
        # Serial sweep (--jobs 1, or at most one pool-eligible cell):
        # attribute the whole sweep to one pseudo-lane so the busy/idle
        # split still shows up instead of an empty ``workers`` table.
        # The serial path emits no unit spans, so fall back to its
        # worker-0 cell spans.
        source = serial_units or [c for c in cells
                                  if c.get("worker", 0) <= 0]
        if source:
            entry = workers["serial"] = {"busy_seconds": 0.0,
                                         "units": 0, "cells": 0,
                                         "steals": 0}
            for unit in source:
                entry["busy_seconds"] += unit.get("seconds", 0.0)
                entry["units"] += 1 if unit.get("kind") == "unit" else 0
                entry["cells"] += unit.get("cells", 1)
    for entry in workers.values():
        busy = entry["busy_seconds"]
        entry["busy_seconds"] = round(busy, 6)
        entry["idle_seconds"] = round(max(wall - busy, 0.0), 6)
        entry["idle_fraction"] = round(1.0 - busy / wall, 4) if wall else 0.0

    durations = sorted(u.get("seconds", 0.0) for u in units)
    mean = sum(durations) / len(durations) if durations else 0.0
    imbalance = round(durations[-1] / mean, 3) if mean else 0.0

    critical = max(cells, key=lambda c: c.get("seconds", 0.0), default=None)
    critical_cell = None
    if critical is not None:
        critical_cell = {
            "span": critical.get("span"),
            "workload": critical.get("workload"),
            "spec": critical.get("component"),
            "seconds": critical.get("seconds", 0.0),
            "kernel": critical.get("kernel"),
            "worker": critical.get("worker", 0),
        }

    straggler = None
    if mode == "pool":
        # A straggler only means something across competing lanes; the
        # serial pseudo-lane is never one.
        straggler = max(workers, key=lambda k: workers[k]["busy_seconds"])

    return {
        "wall_seconds": round(wall, 6),
        "mode": mode,
        "cells": len(cells),
        "units": len(units),
        "steals": sum(entry["steals"] for entry in workers.values()),
        "workers": dict(sorted(
            workers.items(),
            key=lambda kv: int(kv[0]) if kv[0].isdigit() else -1)),
        "unit_imbalance": imbalance,
        "critical_cell": critical_cell,
        "straggler_worker": straggler,
    }


def format_pool_report(report: dict) -> str:
    """Render :func:`pool_report` as the CLI's aligned text table."""
    from repro.analysis.report import format_table

    rows = [
        ("mode", report["mode"]),
        ("wall seconds", report["wall_seconds"]),
        ("cells", report["cells"]),
        ("fused units", report["units"]),
        ("unit imbalance (max/mean)", report["unit_imbalance"]),
        ("steals (rebalanced units)", report.get("steals", 0)),
    ]
    for lane, entry in report["workers"].items():
        rows.append((
            "serial lane" if lane == "serial" else f"worker {lane}",
            f"busy {entry['busy_seconds']:.3f}s  "
            f"idle {entry['idle_seconds']:.3f}s  "
            f"({entry['idle_fraction'] * 100:.1f}% idle, "
            f"{entry['units']} units / {entry['cells']} cells, "
            f"{entry.get('steals', 0)} steals)",
        ))
    if report["straggler_worker"] is not None:
        rows.append(("straggler (busiest lane)",
                     f"worker {report['straggler_worker']}"))
    cell = report["critical_cell"]
    if cell is not None:
        rows.append(("critical-path cell",
                     f"{cell['workload']}/{cell['spec']} "
                     f"{cell['seconds']:.3f}s on worker {cell['worker']} "
                     f"({cell['kernel'] or 'unknown kernel'})"))
    return format_table(["metric", "value"], rows)
