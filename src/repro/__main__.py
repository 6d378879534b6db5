"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``   run one workload under one prefetcher and print the stats
``compare``    run one workload under several prefetchers side by side
``profile``    one run with full telemetry: lifecycle trace, time series,
               Chrome trace, and a run manifest (docs/observability.md)
``events``     filter/summarize a JSONL lifecycle trace file
``workloads``  list the registered workloads
``prefetchers`` list the registered prefetchers
``report``     regenerate every table/figure (see experiments.report_all)
``cache``      inspect or clear the on-disk result and trace caches
``fuzz``       cross-tier identity property sweep (stress suite +
               seeded adversarial traces); exit 1 on any violation
``bench``      wall-clock benchmark -> BENCH_simulator.json
``trace``      export a sweep's fabric spans as a Chrome trace (one lane
               per pool worker) plus a pool-utilization report
``metrics``    print a sweep's metrics registry (runs/<id>/metrics.json)

Sweeps that fan out (``--jobs`` != 1; force with ``REPRO_OBS=1``, off
with ``REPRO_OBS=0``) snapshot fabric observability to
``runs/<sweep-id>/spans.jsonl`` + ``metrics.json``; ``repro trace
latest`` and ``repro metrics latest`` read them back.

``simulate``/``compare``/``profile``/``report`` accept ``--jobs N``
(parallel fan-out, bit-identical to serial), ``--cache-dir DIR``
(persistent result reuse), and ``--journal-dir DIR`` (resumable
matrices: an interrupted run resumed with the same cache + journal
re-simulates nothing that completed); see docs/performance.md and
docs/robustness.md.  Parallel cells are fault-isolated with bounded
retry/backoff (``repro.faults.RetryPolicy``); degradations are
JSONL-logged to ``runs/journal/faults.jsonl``, which ``repro events``
reads like any lifecycle trace.

Parallel sweeps fork a persistent worker pool, share each compiled
trace's numpy columns over named shared-memory segments and dispatch
fine-grained units with work stealing (see docs/performance.md):
``REPRO_SHM=0`` disables segment publication; figures are bit-identical
either way and to ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import format_table


def _obs_for(args):
    """A FabricObs when this invocation should be observed, else None.

    Only the sweep verbs snapshot observability (``report`` wires its
    own through :mod:`repro.experiments.report_all`).
    """
    from repro.obs import FabricObs, obs_enabled

    if args.command not in ("simulate", "compare"):
        return None
    if not obs_enabled(getattr(args, "jobs", 1)):
        return None
    return FabricObs(label=args.command)


def _finish_obs(runner) -> None:
    """Snapshot the runner's obs (if any) under runs/ and say where."""
    if getattr(runner, "obs", None) is None:
        return
    out = runner.obs.write()
    print(f"fabric observability: {out}/spans.jsonl — inspect with "
          f"`repro trace {out.name}` / `repro metrics {out.name}`",
          file=sys.stderr)


def _runner_for(args):
    from repro.experiments.runner import ExperimentRunner

    return ExperimentRunner(jobs=getattr(args, "jobs", 1),
                            cache_dir=getattr(args, "cache_dir", None),
                            journal_dir=getattr(args, "journal_dir", None),
                            obs=_obs_for(args))


def _cmd_simulate(args) -> None:
    runner = _runner_for(args)
    runner.prefill([(args.workload, "none"),
                    (args.workload, args.prefetcher)])
    baseline = runner.baseline(args.workload)
    result = runner.run(args.workload, args.prefetcher)
    rows = [
        ("instructions", result.core.instructions),
        ("cycles", result.cycles),
        ("IPC", round(result.ipc, 3)),
        ("speedup vs no-prefetch", round(result.speedup_over(baseline), 3)),
        ("L1D misses", result.l1d.demand_misses),
        ("L1 MPKI", round(result.l1_mpki, 2)),
        ("prefetches issued", result.prefetch.issued),
        ("useful (L1)", result.l1d.useful_prefetches),
        ("useful (L2)", result.l2.useful_prefetches),
        ("DRAM traffic (lines)", result.dram_traffic),
        ("by component", dict(result.prefetch.by_component)),
    ]
    print(format_table(["metric", "value"], rows))
    _finish_obs(runner)


def _cmd_compare(args) -> None:
    # The runner memoizes on (workload, spec, tag): the no-prefetch
    # baseline is simulated once, not once per compared prefetcher.
    runner = _runner_for(args)
    runner.prefill([(args.workload, "none")]
                   + [(args.workload, name) for name in args.prefetchers])
    baseline = runner.baseline(args.workload)
    rows = []
    for name in args.prefetchers:
        result = runner.run(args.workload, name)
        rows.append(
            (
                name,
                round(result.speedup_over(baseline), 3),
                result.l1d.demand_misses,
                result.prefetch.issued,
                result.l1d.useful_prefetches,
                result.dram_traffic,
            )
        )
    print(format_table(
        ["prefetcher", "speedup", "L1 misses", "issued", "useful",
         "traffic"],
        rows,
    ))
    _finish_obs(runner)


def _cmd_profile(args) -> None:
    from repro.telemetry import Telemetry, TimeSeriesSampler, write_manifest

    sampler = TimeSeriesSampler(interval=args.sample_interval)
    telemetry = Telemetry(record_events=not args.counters_only,
                          sampler=sampler)
    # Profiled runs are never cached (the event stream is the product),
    # so --jobs/--cache-dir only matter for the runner's other uses; the
    # flags exist for CLI uniformity.
    runner = _runner_for(args)
    result = runner.run_profiled(args.workload, args.prefetcher, telemetry)

    mismatches = telemetry.reconcile(result.prefetch)
    rows = [
        ("instructions", result.core.instructions),
        ("cycles", result.cycles),
        ("IPC", round(result.ipc, 3)),
        ("events recorded", len(telemetry.events)),
        ("samples", len(sampler.samples)),
        ("reconciliation", "ok" if not mismatches else f"FAIL {mismatches}"),
    ]
    rows += telemetry.summary_rows()
    print(format_table(["metric", "value"], rows))

    if args.trace:
        count = telemetry.write_jsonl(args.trace)
        print(f"wrote {count} lifecycle events to {args.trace}")
    if args.chrome:
        count = telemetry.write_chrome(args.chrome)
        print(f"wrote {count} trace events to {args.chrome} "
              f"(load in about://tracing or ui.perfetto.dev)")
    if args.svg and sampler.samples:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(sampler.to_svg(
                title=f"{args.workload} / {args.prefetcher}"
            ))
        print(f"wrote time-series chart to {args.svg}")
    if args.runs_dir:
        path = write_manifest(result.manifest, args.runs_dir)
        print(f"wrote manifest to {path}")
    if mismatches:
        sys.exit(1)


def _cmd_events(args) -> None:
    from repro.telemetry import (filter_events, normalize_record,
                                 read_jsonl, summarize)

    filters = dict(
        kind=args.kind,
        component=args.component,
        level=args.level,
        pc=int(args.pc, 0) if args.pc else None,
        line=int(args.line, 0) if args.line else None,
        min_cycle=args.min_cycle,
        max_cycle=args.max_cycle,
    )
    # normalize_record lets this verb read matrix-journal files too
    # (cell_ok/cell_failed records with per-cell kernel attribution).
    events = filter_events(
        (normalize_record(record) for record in read_jsonl(args.trace)),
        **filters)

    if args.list:
        shown = 0
        for event in events:
            kernel = event.get("kernel")
            print(
                f"{event['cycle']:>12}  {event['kind']:<16} "
                f"{event['component'] or '-':<10} L{event['level']} "
                f"line={event['line']:#x} pc={event['pc']:#x}"
                + (f" kernel={kernel}" if kernel else "")
            )
            shown += 1
            if args.limit and shown >= args.limit:
                break
        if not shown:
            print("no matching events")
        return

    summary = summarize(events)
    rows = [("total", summary["total"]),
            ("first cycle", summary["first_cycle"]),
            ("last cycle", summary["last_cycle"])]
    rows += [(f"kind {k}", v) for k, v in summary["by_kind"].items()]
    rows += [(f"component {k}", v)
             for k, v in summary["by_component"].items()]
    rows += [(f"kernel {k}", v)
             for k, v in summary.get("by_kernel", {}).items()]
    print(format_table(["metric", "value"], rows))


def _cmd_workloads(args) -> None:
    from repro.workloads import all_suites

    for suite, workloads in sorted(all_suites().items()):
        print(f"{suite}:")
        for workload in sorted(workloads, key=lambda w: w.name):
            print(f"  {workload.name:28s} {workload.description}")


def _cmd_prefetchers(args) -> None:
    from repro import available_prefetchers, make_prefetcher

    for name in available_prefetchers():
        bits = make_prefetcher(name).storage_bits
        print(f"  {name:10s} {bits / 8 / 1024:7.2f} KB")


def _cmd_report(args) -> None:
    from repro.experiments import report_all

    argv = [args.output] if args.output else []
    argv += ["--jobs", str(args.jobs)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    if args.journal_dir:
        argv += ["--journal-dir", args.journal_dir]
    if args.digests:
        argv += ["--digests", args.digests]
    if args.check:
        argv += ["--check", args.check]
    report_all.main(argv)


def _cmd_cache(args) -> None:
    # One verb covers both on-disk stores: simulation results
    # (runs/cache) and compiled traces (runs/traces).  --results /
    # --traces scope the action; default is both.
    from repro.resultcache import DEFAULT_CACHE_DIR, ResultCache
    from repro.workloads.tracecache import TraceCache

    want_results = args.results or not args.traces
    want_traces = args.traces or not args.results
    result_cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    trace_cache = TraceCache(args.trace_dir)

    if args.action == "clear":
        scope = "stale" if args.stale else "all"
        if want_results:
            removed = result_cache.clear(stale_only=args.stale)
            print(f"removed {removed} result entries ({scope}) "
                  f"from {result_cache.root}")
        if want_traces:
            # Count the stale share before the files disappear, so the
            # message can attribute what a version bump orphaned.
            stale = trace_cache.stats()["stale_entries"]
            removed = trace_cache.clear(stale_only=args.stale)
            dropped = removed if args.stale else min(stale, removed)
            print(f"removed {removed} trace entries ({scope}; {dropped} "
                  f"from stale builder/format versions) "
                  f"from {trace_cache.root}")
        return

    rows = []
    if want_results:
        stats = result_cache.stats()
        rows += [
            ("results: root", stats["root"]),
            ("results: code version", stats["code_version"]),
            ("results: entries (current)", stats["entries"]),
            ("results: bytes (current)", stats["bytes"]),
            ("results: entries (stale)", stats["stale_entries"]),
            ("results: bytes (stale)", stats["stale_bytes"]),
            ("results: stale versions",
             ", ".join(stats["stale_versions"]) or "-"),
        ]
        rows += [(f"results: workload {name}", count)
                 for name, count in sorted(stats["by_workload"].items())]
    if want_traces:
        stats = trace_cache.stats()
        rows += [
            ("traces: root", stats["root"]),
            ("traces: code version", stats["trace_code_version"]),
            ("traces: entries (current)", stats["entries"]),
            ("traces: bytes (current)", stats["bytes"]),
            ("traces: entries (stale)", stats["stale_entries"]),
            ("traces: bytes (stale)", stats["stale_bytes"]),
            ("traces: stale versions",
             ", ".join(stats["stale_versions"]) or "-"),
        ]
        counters = stats["counters"]
        rows += [
            ("traces: builds (this process)", counters["builds"]),
            ("traces: disk hits (this process)", counters["disk_hits"]),
            ("traces: stale-format drops (this process)",
             counters["cache_stale_format"]),
            ("traces: derived builds (this process)",
             counters["derived_builds"]),
            ("traces: derived hits (this process)",
             counters["derived_hits"]),
        ]
    print(format_table(["metric", "value"], rows))


def _cmd_trace(args) -> None:
    from repro.obs import read_spans, resolve_run
    from repro.obs.report import format_pool_report, pool_report
    from repro.telemetry.chrome import write_fabric_chrome

    path = resolve_run(args.run)
    spans = read_spans(path)
    chrome = args.chrome or str(path.parent / "trace.json")
    count = write_fabric_chrome(spans, chrome)
    print(f"wrote {count} spans from {path} to {chrome} "
          f"(load in about://tracing or ui.perfetto.dev)",
          file=sys.stderr)
    print(format_pool_report(pool_report(spans)))


def _cmd_metrics(args) -> None:
    import json

    from repro.obs import read_metrics, resolve_run

    path = resolve_run(args.run, filename="metrics.json")
    snapshot = read_metrics(path)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return
    rows = []
    rows += [(f"counter {name}", value)
             for name, value in snapshot.get("counters", {}).items()]
    rows += [(f"gauge {name}", value)
             for name, value in snapshot.get("gauges", {}).items()]
    for name, hist in snapshot.get("histograms", {}).items():
        rows.append((
            f"histogram {name}",
            f"n={hist['count']} mean={hist['mean']} "
            f"p50={hist['p50']} p95={hist['p95']} max={hist['max']}",
        ))
    if not rows:
        rows = [("(empty)", "-")]
    print(format_table(["metric", "value"], rows))


def _cmd_fuzz(args) -> None:
    import json

    from repro.log import get_logger
    from repro.identity import run_fuzz

    log = get_logger("fuzz")
    report = run_fuzz(
        seeds=args.seeds,
        stress=not args.no_stress,
        prefetchers=args.prefetchers or None,
        progress=log.info,
    )
    rows = [
        ("workloads", report["workloads"]),
        ("prefetchers", len(report["prefetchers"])),
        ("cells", report["cells"]),
        ("mixes", report["mixes"]),
        ("simulations", report["simulations"]),
        ("seconds", report["seconds"]),
        ("mix seconds", report["mix_seconds"]),
        ("violations", len(report["violations"])),
    ]
    rows += [(f"kernel {name}", count)
             for name, count in sorted(report["kernels"].items())]
    rows += [(f"mix kernel {name}", count)
             for name, count in sorted(report["mix_kernels"].items())]
    print(format_table(["metric", "value"], rows))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote fuzz report to {args.output}")
    for violation in report["violations"]:
        log.error(
            "identity violation",
            workload=violation["workload"],
            prefetcher=violation["prefetcher"],
            invariant=violation["invariant"],
            kernel=violation["kernel"],
            reference=violation["reference_kernel"],
            fields=",".join(violation["fields"]),
        )
    if not report["ok"]:
        sys.exit(1)


def _cmd_bench(argv: list[str]) -> None:
    from repro import bench

    sys.exit(bench.main(argv))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Division-of-labor composite prefetching reproduction",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_runner_flags(subparser) -> None:
        subparser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes (0 = one per CPU, default 1 = serial)",
        )
        subparser.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="persistent result cache (e.g. runs/cache)",
        )
        subparser.add_argument(
            "--journal-dir", default=None, metavar="DIR",
            help="resumable-matrix journal (e.g. runs/journal; pairs "
                 "with --cache-dir)",
        )

    simulate_parser = commands.add_parser(
        "simulate", help="run one workload under one prefetcher"
    )
    simulate_parser.add_argument("workload")
    simulate_parser.add_argument("prefetcher", nargs="?", default="tpc")
    add_runner_flags(simulate_parser)
    simulate_parser.set_defaults(func=_cmd_simulate)

    compare_parser = commands.add_parser(
        "compare", help="compare several prefetchers on one workload"
    )
    compare_parser.add_argument("workload")
    compare_parser.add_argument(
        "prefetchers", nargs="*",
        default=["none", "bop", "spp", "sms", "tpc"],
    )
    add_runner_flags(compare_parser)
    compare_parser.set_defaults(func=_cmd_compare)

    profile_parser = commands.add_parser(
        "profile",
        help="run with telemetry: lifecycle trace, time series, manifest",
    )
    profile_parser.add_argument("workload")
    profile_parser.add_argument("prefetcher", nargs="?", default="tpc")
    profile_parser.add_argument(
        "--trace", default=None, metavar="OUT.jsonl",
        help="write the lifecycle event trace as JSON Lines",
    )
    profile_parser.add_argument(
        "--chrome", default=None, metavar="OUT.json",
        help="write a Chrome trace_event file for about://tracing",
    )
    profile_parser.add_argument(
        "--svg", default=None, metavar="OUT.svg",
        help="write the sampled time series as an SVG line chart",
    )
    profile_parser.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="write runs/<id>/manifest.json under DIR",
    )
    profile_parser.add_argument(
        "--sample-interval", type=int, default=8192, metavar="N",
        help="instructions per time-series sample (default 8192)",
    )
    profile_parser.add_argument(
        "--counters-only", action="store_true",
        help="keep counters and samples but not the per-event list",
    )
    add_runner_flags(profile_parser)
    profile_parser.set_defaults(func=_cmd_profile)

    events_parser = commands.add_parser(
        "events", help="filter/summarize a JSONL lifecycle trace"
    )
    events_parser.add_argument("trace", help="JSONL file from profile --trace")
    events_parser.add_argument("--kind", default=None,
                               help="e.g. issued, first_use, dropped_mshr")
    events_parser.add_argument("--component", default=None,
                               help="e.g. T2, P1, C1")
    events_parser.add_argument("--pc", default=None,
                               help="trigger PC (0x... accepted)")
    events_parser.add_argument("--line", default=None,
                               help="line address (0x... accepted)")
    events_parser.add_argument("--level", type=int, default=None)
    events_parser.add_argument("--min-cycle", type=int, default=None)
    events_parser.add_argument("--max-cycle", type=int, default=None)
    events_parser.add_argument("--list", action="store_true",
                               help="print matching events, not a summary")
    events_parser.add_argument("--limit", type=int, default=50,
                               help="max events to list (0 = no limit)")
    events_parser.set_defaults(func=_cmd_events)

    workloads_parser = commands.add_parser(
        "workloads", help="list registered workloads"
    )
    workloads_parser.set_defaults(func=_cmd_workloads)

    prefetchers_parser = commands.add_parser(
        "prefetchers", help="list registered prefetchers"
    )
    prefetchers_parser.set_defaults(func=_cmd_prefetchers)

    report_parser = commands.add_parser(
        "report", help="regenerate every table and figure"
    )
    report_parser.add_argument("-o", "--output", default=None)
    report_parser.add_argument(
        "--digests", default=None, metavar="FILE",
        help="write each section's text sha256 here (JSON)",
    )
    report_parser.add_argument(
        "--check", default=None, metavar="REF",
        help="exit 1 naming every section whose text digest differs "
             "from REF's (e.g. benchmarks/REPORT_digests.json)",
    )
    add_runner_flags(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    cache_parser = commands.add_parser(
        "cache", help="inspect or clear the on-disk result/trace caches"
    )
    cache_parser.add_argument("action", choices=["stats", "clear"],
                              nargs="?", default="stats")
    cache_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache root (default runs/cache)",
    )
    cache_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="trace-cache root (default runs/traces)",
    )
    cache_parser.add_argument(
        "--results", action="store_true",
        help="only the simulation-result cache",
    )
    cache_parser.add_argument(
        "--traces", action="store_true",
        help="only the compiled-trace cache",
    )
    cache_parser.add_argument(
        "--stale", action="store_true",
        help="with clear: only entries from other code versions",
    )
    cache_parser.set_defaults(func=_cmd_cache)

    trace_parser = commands.add_parser(
        "trace",
        help="export a sweep's fabric spans as a Chrome trace + "
             "pool-utilization report",
    )
    trace_parser.add_argument(
        "run", nargs="?", default="latest",
        help="run id under runs/, a run directory, a spans.jsonl path, "
             "or 'latest' (default)",
    )
    trace_parser.add_argument(
        "--chrome", default=None, metavar="OUT.json",
        help="Chrome trace_event output (default <run>/trace.json)",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    metrics_parser = commands.add_parser(
        "metrics", help="print a sweep's metrics registry"
    )
    metrics_parser.add_argument(
        "run", nargs="?", default="latest",
        help="run id under runs/, a run directory, a metrics.json path, "
             "or 'latest' (default)",
    )
    metrics_parser.add_argument(
        "--json", action="store_true",
        help="print the raw JSON snapshot instead of a table",
    )
    metrics_parser.set_defaults(func=_cmd_metrics)

    fuzz_parser = commands.add_parser(
        "fuzz",
        help="cross-tier identity property sweep: stress suite + "
             "seeded adversarial traces, exit 1 on any violation",
    )
    fuzz_parser.add_argument(
        "--seeds", type=int, default=25, metavar="N",
        help="fuzzed traces to generate and check (default 25)",
    )
    fuzz_parser.add_argument(
        "--no-stress", action="store_true",
        help="skip the stress suite, check only fuzzed seeds",
    )
    fuzz_parser.add_argument(
        "--prefetchers", nargs="*", default=None, metavar="NAME",
        help="prefetchers to sweep (default: the whole registry)",
    )
    fuzz_parser.add_argument(
        "-o", "--output", default=None, metavar="OUT.json",
        help="write the full JSON report (violation details included)",
    )
    fuzz_parser.set_defaults(func=_cmd_fuzz)

    commands.add_parser(
        "bench",
        help="wall-clock benchmark -> BENCH_simulator.json "
             "(see repro.bench for flags)",
    )

    # argparse.REMAINDER does not pass leading optionals through a
    # subparser, so bench owns its whole argument list directly.
    argv = argv if argv is not None else sys.argv[1:]
    if argv[:1] == ["bench"]:
        _cmd_bench(argv[1:])
        return

    args = parser.parse_args(argv)
    try:
        args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)


if __name__ == "__main__":
    main(sys.argv[1:])
