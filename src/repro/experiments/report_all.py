"""Regenerate every reproduced artifact in one run.

``python -m repro.experiments.report_all [output.md]`` runs Tables I-II,
Figs. 1 and 8-16, the drop-policy experiment, and the ablations, sharing
one result cache, and writes a single markdown-ish report.  This is the
programmatic equivalent of ``pytest benchmarks/ --benchmark-only`` when
you want the tables without the benchmarking machinery.

``--jobs N`` fans the simulation matrix out across processes (results
are bit-identical to serial); ``--cache-dir DIR`` reuses simulations
across invocations, so a warm re-run performs zero simulations;
``--journal-dir DIR`` records completed cells so an interrupted run
resumes with zero re-simulations of settled cells.

``--digests FILE`` records the sha256 of each section's text (and of
the whole report) as JSON; ``--check REF`` compares them with a
recorded ``REF`` and exits 1, naming every section whose text changed.
A change that moves a figure on purpose records new digests.
``benchmarks/REPORT_digests.json`` holds the current tree's.

Sections are fault-isolated: a section that raises is reported as
failed (with its traceback inlined in the report and a
``section_failed`` fault-log record) while every other section still
renders — pass ``--fail-fast`` to restore abort-on-first-error.  The
exit code is nonzero when any section failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback

from repro.experiments import (
    ablations,
    drop_policy,
    fig01,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    tables,
)
from repro.experiments.runner import ExperimentRunner
from repro.log import get_logger
from repro.workloads.tracecache import trace_counters

SECTIONS = [
    ("Table I — system configuration",
     lambda runner: tables.render_table1()),
    ("Table II — prefetcher storage cost",
     lambda runner: tables.render_table2()),
    ("Fig. 1 — accuracy vs scope (AMPM/BOP/SMS)",
     lambda runner: fig01.render(fig01.run(runner))),
    ("Fig. 8 — per-application speedups",
     lambda runner: fig08.render(fig08.run(runner))),
    ("Fig. 9 — normalized memory traffic",
     lambda runner: fig09.render(fig09.run(runner))),
    ("Fig. 10 — effective accuracy vs scope (all prefetchers)",
     lambda runner: fig10.render(fig10.run(runner))),
    ("Fig. 11 — speedups per suite (incl. 4-core mixes)",
     lambda runner: fig11.render(fig11.run(runner, mix_count=3))),
    ("Fig. 12 — accuracy/coverage vs scope at L1 and L2",
     lambda runner: fig12.render(fig12.run(runner))),
    ("Fig. 13 — per-category (LHF/MHF/HHF) accuracy and scope",
     lambda runner: fig13.render(fig13.run(runner))),
    ("Fig. 14 — existing prefetchers alone vs as TPC components",
     lambda runner: fig14.render(fig14.run(runner))),
    ("Fig. 15 — compositing vs shunting",
     lambda runner: fig15.render(fig15.run(runner))),
    ("Fig. 16 — prefetch destination",
     lambda runner: fig16.render(fig16.run(runner))),
    ("Sec. V-C1 — memory-controller drop policy",
     lambda runner: drop_policy.render(drop_policy.run(mix_count=3))),
    ("Ablations — TPC design choices",
     lambda runner: ablations.render(ablations.run(runner))),
]


def generate(runner: ExperimentRunner | None = None,
             progress=None, jobs: int = 1, cache_dir=None,
             journal_dir=None, fail_fast: bool = False,
             section_errors: list | None = None,
             sections: list | None = None) -> str:
    """Run every section and return the combined report text.

    ``jobs`` / ``cache_dir`` / ``journal_dir`` configure the default
    runner (ignored when an explicit ``runner`` is passed).  When the
    caller passes a ``sections`` list, each section's ``(title, text)``
    is appended to it; the report is those texts joined by newlines.

    Each section is fault-isolated: an exception becomes a ``SECTION
    FAILED`` block carrying the traceback (and appends the title to
    ``section_errors`` when the caller passes a list) instead of
    aborting the remaining sections.  ``fail_fast=True`` restores the
    old propagate-immediately behavior.
    """
    if runner is None:
        runner = ExperimentRunner(jobs=jobs, cache_dir=cache_dir,
                                  journal_dir=journal_dir)
    parts = []
    for title, render in SECTIONS:
        started = time.time()
        try:
            body = render(runner)
        except Exception:
            if fail_fast:
                raise
            from repro.faults import SECTION_FAILED, log_fault

            log_fault(SECTION_FAILED, detail=title)
            if section_errors is not None:
                section_errors.append(title)
            body = "SECTION FAILED\n\n" + traceback.format_exc()
        elapsed = time.time() - started
        if progress is not None:
            progress(f"{title} ({elapsed:.0f}s)")
        parts.append(f"## {title}\n\n```\n{body}\n```\n")
        if sections is not None:
            sections.append((title, parts[-1]))
    return "\n".join(parts)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(sections: list) -> dict:
    """The sha256 of each section's text, by title, and of the report
    (the texts joined as :func:`generate` joins them)."""
    return {
        "report": _sha256("\n".join(text for _, text in sections)),
        "sections": {title: _sha256(text) for title, text in sections},
    }


def changed_sections(recorded: dict, current: dict) -> list[str]:
    """Titles whose text digest differs between two :func:`digests`
    records, in ``current``'s order, then titles only ``recorded``
    has."""
    old, new = recorded["sections"], current["sections"]
    return ([title for title in new if old.get(title) != new[title]]
            + [title for title in old if title not in new])


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.report_all", description=__doc__
    )
    parser.add_argument("output", nargs="?", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (0 = one per CPU)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent result-cache directory")
    parser.add_argument("--journal-dir", default=None,
                        help="resumable-matrix journal directory "
                             "(pairs with --cache-dir)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort on the first failing section instead "
                             "of isolating it")
    parser.add_argument("--digests", default=None, metavar="FILE",
                        help="write each section's text sha256 here (JSON)")
    parser.add_argument("--check", default=None, metavar="REF",
                        help="exit 1 naming every section whose text "
                             "digest differs from REF's")
    args = parser.parse_args(argv)
    log = get_logger("report")
    from repro.obs import FabricObs, obs_enabled

    obs = FabricObs("report_all") if obs_enabled(args.jobs) else None
    runner = ExperimentRunner(jobs=args.jobs, cache_dir=args.cache_dir,
                              journal_dir=args.journal_dir, obs=obs)
    section_errors: list = []
    sections: list = []
    report = generate(runner, progress=log.info,
                      fail_fast=args.fail_fast,
                      section_errors=section_errors, sections=sections)
    record = digests(sections)
    log.info(f"report sha256 {record['report'][:16]}")
    counts = runner.counters
    log.info(
        f"simulations: {counts['simulated']} fresh, "
        f"{counts['memory_hits']} memoized, "
        f"{counts['disk_hits']} from disk cache, "
        f"{counts['resume_hits']} resumed from journal, "
        f"{counts['failed_cells']} failed cells",
    )
    # A warm run (trace cache populated) must show zero builds here.
    traces = trace_counters()
    log.info(
        f"traces: {traces['builds']} built, "
        f"{traces['disk_hits']} from trace cache, "
        f"{traces['memory_hits']} memoized",
    )
    if obs is not None:
        out = obs.write()
        log.info(f"fabric observability: {out}/spans.jsonl — inspect with "
                 f"`repro trace {out.name}`")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        log.info(f"wrote {args.output}")
    else:
        print(report)
    if args.digests:
        with open(args.digests, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, ensure_ascii=False)
            handle.write("\n")
        log.info(f"wrote {args.digests}")
    if section_errors:
        log.error(f"FAILED sections: {', '.join(section_errors)}")
    changed = []
    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            changed = changed_sections(json.load(handle), record)
        for title in changed:
            print(f"FAIL: section text changed: {title}", file=sys.stderr)
        if not changed:
            log.info(f"check ok: every section matches {args.check}")
    if section_errors or changed:
        sys.exit(1)


if __name__ == "__main__":  # pragma: no cover
    main()
