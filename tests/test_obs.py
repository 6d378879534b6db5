"""Fabric observability (docs/observability.md, "Fabric" section).

The contracts under test:

* **Deterministic span merge** — a ``--jobs 4`` sweep and a ``--jobs 1``
  sweep of the same matrix snapshot the same cell-span sequence (span
  ids, order, attempts), even though completion order differs.
* **Bit-identity** — attaching a :class:`repro.obs.FabricObs` changes
  nothing but wall clock: every figure equals the unobserved run's.
* **Metrics round-trip** — a snapshot written through a journal-resume
  cycle reads back exactly, and the resume pass is visible in it.
* **One registry** — every layer counts into the process registry; a
  sweep reads what its process counted while it ran, plus what its
  pool workers counted per unit, so ``--jobs 1`` and ``--jobs 2``
  sweeps record the same kernel selections.
* **Utilization** — unit spans are worker-timed, so no worker is busy
  for longer than the sweep ran.
* **Correlation** — fault-log records carry the cell's deterministic
  span id, so ``repro events`` output lines up with ``repro trace``.
"""

from __future__ import annotations

import json

import pytest

import repro.__main__ as cli
from repro import parallel
from repro.engine.config import EXPERIMENT_CONFIG
from repro.experiments.runner import ExperimentRunner
from repro.faults import RetryPolicy, faultlog
from repro.log import Logger
from repro.obs import (
    FabricObs,
    cell_span_id,
    metrics,
    obs_enabled,
    read_metrics,
    read_spans,
    resolve_run,
)
from repro.obs.report import format_pool_report, pool_report
from repro.parallel import run_jobs, shutdown_pool
from repro.telemetry.chrome import fabric_chrome_trace

MATRIX = [
    ("spec.libquantum", "none"),
    ("spec.libquantum", "bop"),
    ("spec.astar", "none"),
    ("spec.astar", "bop"),
]


def _figures(results):
    return [
        (r.core.cycles, r.core.instructions, r.l1d.demand_misses,
         r.dram_traffic)
        for r in results
    ]


def _cell_sequence(obs):
    return [
        (r["span"], r["workload"], r["component"], r["level"], r["kind"])
        for r in obs.records() if r["kind"] == "cell"
    ]


@pytest.fixture(scope="module")
def sweeps():
    """One plain run, one observed serial run, one observed pool run."""
    mp = pytest.MonkeyPatch()
    mp.setenv(faultlog.FAULT_LOG_ENV, "")
    try:
        plain = run_jobs(MATRIX, EXPERIMENT_CONFIG, 1)
        serial_obs = FabricObs("sweep-test")
        serial = run_jobs(MATRIX, EXPERIMENT_CONFIG, 1, obs=serial_obs)
        serial_obs.finish()
        pool_obs = FabricObs("sweep-test")
        pooled = run_jobs(MATRIX, EXPERIMENT_CONFIG, 4, obs=pool_obs)
        pool_obs.finish()
        shutdown_pool()
        return {
            "plain": plain,
            "serial": serial, "serial_obs": serial_obs,
            "pooled": pooled, "pool_obs": pool_obs,
        }
    finally:
        mp.undo()


# ----------------------------------------------------------------------
# Deterministic span merge
# ----------------------------------------------------------------------
def test_cell_spans_identical_jobs1_vs_jobs4(sweeps):
    serial_cells = _cell_sequence(sweeps["serial_obs"])
    pool_cells = _cell_sequence(sweeps["pool_obs"])
    assert serial_cells == pool_cells
    assert len(serial_cells) == len(MATRIX)
    # Deterministic ids: pure functions of cell identity.
    assert set(s[0] for s in serial_cells) == {
        cell_span_id(w, p, "", 0) for w, p in MATRIX
    }


def test_pool_spans_carry_worker_lanes_and_kernels(sweeps):
    records = sweeps["pool_obs"].records()
    cells = [r for r in records if r["kind"] == "cell"]
    units = [r for r in records if r["kind"] == "unit"]
    assert units, "pool sweep must emit unit spans"
    assert all(u["worker"] >= 1 for u in units)
    assert all(c["worker"] >= 1 for c in cells)
    assert all(c["kernel"] for c in cells)
    assert all(c["instructions"] > 0 for c in cells)
    # Each cell points at the unit that ran it.
    unit_ids = {u["span"] for u in units}
    assert all(c["parent"] in unit_ids for c in cells)


def test_sweep_id_stable_across_jobs(sweeps):
    assert (sweeps["serial_obs"].sweep_id
            == sweeps["pool_obs"].sweep_id)


# ----------------------------------------------------------------------
# Bit-identity: obs on == obs off
# ----------------------------------------------------------------------
def test_observed_figures_bit_identical_to_unobserved(sweeps):
    reference = _figures(sweeps["plain"])
    assert _figures(sweeps["serial"]) == reference
    assert _figures(sweeps["pooled"]) == reference


def test_second_finish_adds_no_counts():
    """finish() adds the process counts made since the obs was built,
    exactly once."""
    obs = FabricObs("finish-test")
    metrics.PROCESS.count("test.finish_probe")
    obs.finish()
    first = obs.metrics.snapshot()
    assert first["counters"]["test.finish_probe"] == 1
    metrics.PROCESS.count("test.finish_probe")
    obs.finish()
    assert obs.metrics.snapshot() == first


# ----------------------------------------------------------------------
# Metrics registry + snapshot round-trip through journal resume
# ----------------------------------------------------------------------
def test_metrics_roundtrip_through_journal_resume(tmp_path, monkeypatch):
    monkeypatch.setenv(faultlog.FAULT_LOG_ENV,
                       str(tmp_path / "faults.jsonl"))
    cache = tmp_path / "cache"
    journal = tmp_path / "journal"

    cold_obs = FabricObs("resume-test")
    cold = ExperimentRunner(cache_dir=cache, journal_dir=journal,
                            jobs=1, obs=cold_obs)
    for workload, spec in MATRIX:
        cold.run(workload, spec)
    cold_obs.finish()
    cold_snapshot = cold_obs.metrics.snapshot()
    assert cold_snapshot["counters"]["result_cache.put"] == len(MATRIX)

    warm_obs = FabricObs("resume-test")
    warm = ExperimentRunner(cache_dir=cache, journal_dir=journal,
                            jobs=1, obs=warm_obs)
    for workload, spec in MATRIX:
        warm.run(workload, spec)
    warm_obs.finish()
    assert warm.counters["resume_hits"] == len(MATRIX)
    assert warm.counters["simulated"] == 0

    snapshot = warm_obs.metrics.snapshot()
    assert snapshot["counters"]["runner.resume_hits"] == len(MATRIX)
    assert snapshot["counters"]["result_cache.disk_hit"] == len(MATRIX)
    assert snapshot["counters"]["faults.resume_hit"] == len(MATRIX)
    resumes = [r for r in warm_obs.records()
               if r["kind"] == "journal_resume"]
    assert len(resumes) == len(MATRIX)

    out = warm_obs.write(runs_dir=tmp_path / "runs")
    assert (out / "spans.jsonl").is_file()
    assert read_metrics(out / "metrics.json") == snapshot
    # The JSONL snapshot reads back record-for-record too.
    assert read_spans(out / "spans.jsonl") == warm_obs.records()


def test_process_registry_counts_kernel_selection(sweeps):
    """Kernel selections and compiles count in the process registry,
    each compile with its generated lines and compile microseconds."""
    counters = metrics.PROCESS.counters
    assert any(name.startswith("kernel.selected.") for name in counters)
    assert any(name.startswith("kernel.compiled.") for name in counters)
    assert counters["kernel.generated_lines"] > 0
    assert counters["kernel.compile_us"] > 0


@pytest.fixture(scope="module")
def jobs2():
    """A ``--jobs 2`` pool sweep of MATRIX (one unit per cell, so more
    units than workers) and a ``--jobs 1`` sweep of the same matrix."""
    mp = pytest.MonkeyPatch()
    mp.setenv(faultlog.FAULT_LOG_ENV, "")
    try:
        serial_obs = FabricObs("jobs2-test")
        run_jobs(MATRIX, EXPERIMENT_CONFIG, 1, obs=serial_obs)
        serial_obs.finish()
        pool_obs = FabricObs("jobs2-test")
        run_jobs(MATRIX, EXPERIMENT_CONFIG, 2, obs=pool_obs)
        pool_obs.finish()
        shutdown_pool()
        return {"serial_obs": serial_obs, "pool_obs": pool_obs}
    finally:
        mp.undo()


def _selected(obs) -> dict:
    return {name: value for name, value
            in obs.metrics.snapshot()["counters"].items()
            if name.startswith("kernel.selected.")}


def test_pool_workers_report_their_counts_to_the_sweep(jobs2):
    """Cells that ran in pool workers count their kernel selections in
    the sweep's registry, exactly as the same cells run serially."""
    serial = _selected(jobs2["serial_obs"])
    assert sum(serial.values()) == len(MATRIX)
    assert _selected(jobs2["pool_obs"]) == serial
    units = [r for r in jobs2["pool_obs"].records() if r["kind"] == "unit"]
    assert len(units) > 2


def test_worker_busy_time_fits_in_the_sweep(jobs2):
    """Unit spans are timed in the worker, so a unit waiting in the
    executor queue is not busy time: no worker is busy for longer than
    the sweep ran."""
    obs = jobs2["pool_obs"]
    report = pool_report(obs.records())
    assert report["mode"] == "pool"
    for entry in report["workers"].values():
        assert entry["busy_seconds"] <= report["wall_seconds"]
        assert entry["idle_fraction"] >= 0.0
    gauges = obs.metrics.snapshot()["gauges"]
    busy = [value for name, value in gauges.items()
            if name.endswith(".busy_seconds")]
    assert busy and max(busy) <= report["wall_seconds"]


def test_unit_queue_seconds_reach_the_worker_start(jobs2):
    """All first-attempt units enter the scheduler together, and a
    unit's ``queue_seconds`` runs until its worker starts it, executor
    queue included: ``start - queue_seconds`` is the same instant for
    every one of them, however long some waited for a free worker."""
    units = [r for r in jobs2["pool_obs"].records()
             if r["kind"] == "unit" and r["level"] == 0]
    assert len(units) == len(MATRIX)  # one unit per cell, 2 workers
    enqueued = [u["start"] - u["queue_seconds"] for u in units]
    assert max(enqueued) - min(enqueued) < 0.05, units


# ----------------------------------------------------------------------
# Fault-log correlation
# ----------------------------------------------------------------------
def test_fault_records_carry_cell_span_ids(tmp_path, monkeypatch):
    log = tmp_path / "faults.jsonl"
    monkeypatch.setenv(faultlog.FAULT_LOG_ENV, str(log))
    faultlog.log_fault(faultlog.CELL_RETRY, workload="w", spec="s",
                       tag="", attempt=1,
                       span=cell_span_id("w", "s", "", 0))
    record = json.loads(log.read_text().splitlines()[-1])
    assert record["span"] == "cell:w/s@0"


def test_serial_retry_tags_faults_and_spans(tmp_path, monkeypatch):
    monkeypatch.setenv(faultlog.FAULT_LOG_ENV,
                       str(tmp_path / "faults.jsonl"))
    marker = tmp_path / "attempted"

    def flaky():
        from repro.prefetcher_registry import make_prefetcher

        if not marker.exists():
            marker.write_text("x")
            raise RuntimeError("injected first-attempt failure")
        return make_prefetcher("none")

    flaky.cache_key = "obs-flaky-spec"
    obs = FabricObs("retry-test")
    policy = RetryPolicy(max_attempts=3, backoff_seconds=0.01)
    results = run_jobs([("spec.libquantum", flaky)], EXPERIMENT_CONFIG, 1,
                       policy=policy, obs=obs)
    obs.finish()
    assert not hasattr(results[0], "error")

    cells = [r for r in obs.records() if r["kind"] == "cell"]
    assert [c["level"] for c in cells] == [0, 1]
    assert "error" in cells[0]
    waits = [r for r in obs.records() if r["kind"] == "retry_wait"]
    assert len(waits) == 1
    assert obs.metrics.snapshot()["counters"]["faults.cell_retry"] == 1

    log_records = [json.loads(line) for line in
                   (tmp_path / "faults.jsonl").read_text().splitlines()]
    retries = [r for r in log_records if r["kind"] == "cell_retry"]
    assert retries[0]["span"] == cells[0]["span"]


# ----------------------------------------------------------------------
# Chrome export + pool report
# ----------------------------------------------------------------------
def test_fabric_chrome_trace_one_lane_per_worker(sweeps):
    obs = sweeps["pool_obs"]
    trace = fabric_chrome_trace(obs.records())
    metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    lanes = {e["tid"]: e["args"]["name"] for e in metadata}
    workers = {r["worker"] for r in obs.records() if r["worker"] > 0}
    assert lanes[0] == "parent"
    assert {t for t in lanes if t > 0} == workers
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == len(obs.records())
    assert all(e["dur"] >= 1 for e in slices)
    cell_names = {e["name"] for e in slices if e["name"].startswith("spec.")}
    assert f"{MATRIX[0][0]}/{MATRIX[0][1]}" in cell_names


def test_pool_report_attributes_stragglers(sweeps):
    report = pool_report(sweeps["pool_obs"].records())
    assert report["mode"] == "pool"
    assert report["cells"] == len(MATRIX)
    assert report["workers"]
    assert report["straggler_worker"] in report["workers"]
    for entry in report["workers"].values():
        assert entry["busy_seconds"] > 0
        assert 0.0 <= entry["idle_fraction"] <= 1.0
    critical = report["critical_cell"]
    assert (critical["workload"], critical["spec"]) in MATRIX
    text = format_pool_report(report)
    assert "straggler" in text and "critical-path cell" in text

    serial_report = pool_report(sweeps["serial_obs"].records())
    assert serial_report["mode"] == "serial"
    # The serial fallback still gets one pseudo-lane (instead of an
    # empty workers table) and never names a straggler.
    assert list(serial_report["workers"]) == ["serial"]
    assert serial_report["workers"]["serial"]["cells"] == len(MATRIX)
    assert serial_report["workers"]["serial"]["busy_seconds"] > 0
    assert serial_report["straggler_worker"] is None
    assert "serial lane" in format_pool_report(serial_report)


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
def test_cli_trace_and_metrics_verbs(sweeps, tmp_path, capsys):
    runs = tmp_path / "runs"
    out = sweeps["pool_obs"].write(runs_dir=runs)

    cli.main(["trace", str(out), "--chrome",
              str(tmp_path / "trace.json")])
    shown = capsys.readouterr()
    assert "critical-path cell" in shown.out
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])

    cli.main(["metrics", str(out / "metrics.json")])
    shown = capsys.readouterr()
    assert "pool.workers" in shown.out
    # The workers' replay-kernel counts reach the sweep's registry: a
    # selection per cell, and per segmented cell one plan lookup, a
    # build or a memoized reuse (which one depends on what the worker
    # inherited, so the sweep shows whether its plans were rebuilt).
    assert "kernel.selected." in shown.out
    assert "kernel.plan_" in shown.out
    counters = read_metrics(out / "metrics.json")["counters"]
    segmented_cells = sum(
        1 for r in sweeps["pool_obs"].records()
        if r["kind"] == "cell" and r["kernel"].startswith("segmented+"))
    assert (counters.get("kernel.plan_builds", 0)
            + counters.get("kernel.plan_cache_hits", 0)) == segmented_cells

    # `events` reads the span stream unchanged (schema superset).
    cli.main(["events", str(out / "spans.jsonl"), "--kind", "cell"])
    shown = capsys.readouterr()
    assert "total" in shown.out

    assert resolve_run(str(out)) == out / "spans.jsonl"
    with pytest.raises(SystemExit):
        resolve_run("no-such-run", runs_dir=str(tmp_path / "empty"))


def test_obs_enabled_env_contract(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    assert not obs_enabled(1)
    assert obs_enabled(4)
    monkeypatch.setenv("REPRO_OBS", "0")
    assert not obs_enabled(4)
    monkeypatch.setenv("REPRO_OBS", "1")
    assert obs_enabled(1)


# ----------------------------------------------------------------------
# Leveled logger
# ----------------------------------------------------------------------
def test_logger_modes(monkeypatch, capsys):
    import io

    stream = io.StringIO()
    log = Logger("t", stream=stream)

    monkeypatch.setenv("REPRO_LOG", "text")
    log.info("hello", cells=4)
    assert stream.getvalue() == "hello cells=4\n"

    stream.truncate(0)
    stream.seek(0)
    monkeypatch.setenv("REPRO_LOG", "quiet")
    log.info("suppressed")
    log.warn("suppressed too")
    log.error("shown")
    assert stream.getvalue() == "shown\n"

    stream.truncate(0)
    stream.seek(0)
    monkeypatch.setenv("REPRO_LOG", "json")
    log.info("structured", jobs=2)
    record = json.loads(stream.getvalue())
    assert record["level"] == "info"
    assert record["logger"] == "t"
    assert record["msg"] == "structured"
    assert record["jobs"] == 2
    assert "ts" in record


def test_bench_quick_json_progress(monkeypatch, capsys):
    # The bench CLI narrates through the leveled logger; json mode must
    # yield machine-parseable progress lines.  (Smoke: argument wiring
    # only, not a timed benchmark.)
    from repro.log import LOG_ENV, log_mode

    monkeypatch.setenv(LOG_ENV, "json")
    assert log_mode() == "json"
    monkeypatch.setenv(LOG_ENV, "bogus")
    assert log_mode() == "text"


# ----------------------------------------------------------------------
# Runner integration: obs'd prefill over the pool
# ----------------------------------------------------------------------
def test_runner_prefill_threads_obs_through_pool(tmp_path, monkeypatch):
    monkeypatch.setenv(faultlog.FAULT_LOG_ENV, "")
    obs = FabricObs("prefill-test")
    runner = ExperimentRunner(cache_dir=tmp_path / "cache", jobs=4,
                              obs=obs)
    stored = runner.prefill(MATRIX)
    obs.finish()
    shutdown_pool()
    assert stored == len(MATRIX)
    cells = [r for r in obs.records() if r["kind"] == "cell"]
    assert len(cells) == len(MATRIX)
    puts = [r for r in obs.records() if r["kind"] == "cache_put"]
    gets = [r for r in obs.records() if r["kind"] == "cache_get"]
    assert len(puts) == len(MATRIX)
    assert len(gets) == len(MATRIX)
    assert all(g["hit"] is False for g in gets)
    snapshot = obs.metrics.snapshot()
    assert snapshot["counters"]["result_cache.disk_miss"] == len(MATRIX)
    assert snapshot["gauges"]["pool.workers"] >= 1


def test_bench_parallel_reports_workers(monkeypatch):
    monkeypatch.setenv(faultlog.FAULT_LOG_ENV, "")
    from repro.bench import bench_parallel

    # Pin the pool path: this test is about per-worker reporting, so
    # the low-CPU/small-matrix serial fallback must not preempt it.
    monkeypatch.setattr(parallel, "serial_fallback_reason",
                        lambda *args: None)
    section = bench_parallel(MATRIX, EXPERIMENT_CONFIG, 4,
                             serial_seconds=1.0)
    shutdown_pool()
    assert section["jobs"] == 4
    assert section["cpus"] >= 1
    assert section["workers"], "per-worker busy/idle must be recorded"
    for entry in section["workers"].values():
        assert {"busy_seconds", "idle_seconds",
                "idle_fraction"} <= set(entry)
    assert "critical_cell" in section["utilization"]
    assert parallel.pool_workers() == 0


def test_serial_fallback_reason_thresholds(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
    assert parallel.serial_fallback_reason(2, 4) is not None  # tiny matrix
    assert parallel.serial_fallback_reason(8, 4) is None
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    assert parallel.serial_fallback_reason(8, 4) is not None


def test_bench_parallel_serial_fallback_recorded(monkeypatch):
    """When the host/matrix cannot amortize the pool, the parallel pass
    runs serially and records it — check_regression reads the marker to
    skip the speedup gate instead of failing it."""
    monkeypatch.setenv(faultlog.FAULT_LOG_ENV, "")
    from repro.bench import bench_parallel

    monkeypatch.setattr(parallel, "serial_fallback_reason",
                        lambda *args: "host has 1 cpu(s)")
    section = bench_parallel(MATRIX, EXPERIMENT_CONFIG, 4,
                             serial_seconds=1.0)
    shutdown_pool()
    assert section["fallback"] == "serial"
    assert section["fallback_reason"] == "host has 1 cpu(s)"
    assert parallel.pool_workers() == 0
