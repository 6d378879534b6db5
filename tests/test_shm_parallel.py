"""Shared-memory trace columns + work-stealing scheduler (docs/performance.md).

Three contracts under test:

* **Zero-copy sharing** — a published trace attaches as numpy views
  that are value-identical to the original (columns, derived columns,
  segment events, memory image), and figures are bit-identical with
  shared memory on, off, and serial — under ``fork`` *and* ``spawn``.
* **Lifecycle** — the parent-side manifest is the leak oracle: segments
  are released on explicit :func:`repro.parallel.shm.release_all`, on a
  ``KeyboardInterrupt`` unwinding ``run_jobs``, and survive a
  chaos-killed worker (the dead worker's resource tracker must not
  unlink parent-owned segments) until the parent releases them.
* **Work stealing** — an imbalanced matrix records nonzero
  ``pool.steals``, steal spans, and per-worker steal counts in the
  pool report, with figures still bit-identical to serial.
"""

import glob
import json
import os
import subprocess
import sys

import pytest

from repro.engine.config import EXPERIMENT_CONFIG
from repro.experiments.runner import simulate_spec
from repro.faults import RetryPolicy, chaos
from repro.faults.faultlog import faults_since
from repro.isa.trace import DERIVED_FIELDS, TRACE_FIELDS
from repro.obs import FabricObs, metrics
from repro.obs.report import pool_report
from repro.parallel import run_jobs, shutdown_pool, shm
from repro.workloads import get_workload

APP = "spec.libquantum"
APP2 = "spec.astar"


@pytest.fixture(autouse=True)
def _shm_isolation(monkeypatch):
    """Chaos off, fault log off, segments + pool torn down around each
    test (the persistent pool must not leak one test's env into the
    next — REPRO_MP_CONTEXT/REPRO_SHM are read at fork time)."""
    monkeypatch.setenv("REPRO_FAULT_LOG", "")
    chaos.reset_chaos()
    shutdown_pool()
    shm.release_all()
    yield
    chaos.reset_chaos()
    shutdown_pool()
    shm.release_all()


def _figures(result):
    return (result.core.cycles, result.core.instructions,
            result.l1d.demand_misses, result.dram_traffic)


def _ok_figures(results):
    assert all(hasattr(r, "core") for r in results), results
    return [_figures(r) for r in results]


# ----------------------------------------------------------------------
# Publish / attach roundtrip
# ----------------------------------------------------------------------
def test_publish_attach_roundtrip_is_value_identical():
    trace = get_workload(APP).trace()
    entry = shm.publish(APP, trace)
    assert entry is not None
    assert entry.segment in shm.manifest_names()
    # Idempotent: a second publish reuses the live segment.
    assert shm.publish(APP, trace) is entry

    attached = shm.attach(entry)
    assert attached.name == trace.name
    assert len(attached) == len(trace)
    for field, mine, theirs in zip(TRACE_FIELDS, trace.array_columns(),
                                   attached.array_columns()):
        assert (mine == theirs).all(), field
    for field, mine, theirs in zip(DERIVED_FIELDS, trace.derived_arrays(),
                                   attached.derived_arrays()):
        assert (mine == theirs).all(), field
    assert (attached.segment_events() == trace.segment_events()).all()
    # The memory dict rebuilds lazily from the shared address/value
    # arrays, preserving the parent's insertion order.
    assert attached.memory == trace.memory
    assert list(attached.memory) == list(trace.memory)

    assert shm.release(APP)
    assert shm.manifest_names() == []


def test_attach_after_release_raises():
    entry = shm.publish(APP, get_workload(APP).trace())
    shm.release_all()
    with pytest.raises(FileNotFoundError):
        shm.attach(entry)


def test_shm_disabled_publishes_nothing(monkeypatch):
    monkeypatch.setenv(shm.SHM_ENV, "0")
    assert not shm.enabled()
    assert shm.publish(APP, get_workload(APP).trace()) is None
    assert shm.manifest_names() == []


# ----------------------------------------------------------------------
# Figure identity: shm on / off / serial, fork / spawn
# ----------------------------------------------------------------------
MATRIX = [(APP, "none"), (APP, "bop"), (APP2, "none"), (APP2, "bop")]


def test_figures_identical_shm_on_off_and_serial(monkeypatch):
    serial = _ok_figures(run_jobs(MATRIX, EXPERIMENT_CONFIG, 1))
    with_shm = _ok_figures(run_jobs(MATRIX, EXPERIMENT_CONFIG, 2))
    assert with_shm == serial
    shutdown_pool()
    shm.release_all()
    monkeypatch.setenv(shm.SHM_ENV, "0")
    without = _ok_figures(run_jobs(MATRIX, EXPERIMENT_CONFIG, 2))
    assert without == serial
    assert shm.manifest_names() == []


def test_spawn_context_bit_identical_to_fork_and_serial(monkeypatch):
    """The spawn smoke test: workers that share nothing by fork must
    attach the shared segments and reproduce the figures exactly."""
    serial = _ok_figures(run_jobs(MATRIX, EXPERIMENT_CONFIG, 1))
    fork = _ok_figures(run_jobs(MATRIX, EXPERIMENT_CONFIG, 2))
    monkeypatch.setenv(shm.MP_CONTEXT_ENV, "spawn")
    assert shm.mp_context_name() == "spawn"
    # The executor rebuilds itself when the requested context changes.
    spawn = _ok_figures(run_jobs(MATRIX, EXPERIMENT_CONFIG, 2))
    assert fork == serial
    assert spawn == serial


# ----------------------------------------------------------------------
# Lifecycle: no leaked segments across exit paths
# ----------------------------------------------------------------------
def test_normal_exit_releases_every_segment():
    run_jobs(MATRIX, EXPERIMENT_CONFIG, 2)
    # Segments persist across run_jobs calls by design (the next sweep
    # reuses them); the manifest knows exactly what to unlink and the
    # atexit hook is armed to do it.
    published = shm.manifest_names()
    assert len(published) == 2  # one segment per workload
    assert shm._ATEXIT_REGISTERED
    assert shm.release_all() == 2
    assert shm.manifest_names() == []
    assert shm.release_all() == 0  # idempotent


def test_keyboard_interrupt_releases_segments(monkeypatch):
    from repro import parallel

    def explode(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(parallel, "_run_pool", explode)
    with pytest.raises(KeyboardInterrupt):
        run_jobs(MATRIX, EXPERIMENT_CONFIG, 2)
    assert shm.manifest_names() == []


def test_chaos_killed_worker_does_not_unlink_segments(monkeypatch):
    """A dying worker must never take parent-owned segments down with
    it (workers share the parent's resource tracker); the rebuilt pool
    finishes the sweep off the same segments, bit-identically."""
    before = metrics.mark()
    reference = [_figures(simulate_spec(w, s, "", EXPERIMENT_CONFIG))
                 for w, s in MATRIX]
    monkeypatch.setenv(chaos.CHAOS_ENV, f"kill={APP}/none")
    chaos.reset_chaos()
    results = run_jobs(MATRIX, EXPERIMENT_CONFIG, 2,
                       policy=RetryPolicy(max_attempts=3,
                                          backoff_seconds=0.01))
    assert _ok_figures(results) == reference
    assert faults_since(before)["worker_lost"] >= 1
    # The segments survived the kill: still in the manifest, and still
    # attachable from this process (the file exists in /dev/shm).
    entries = shm.published()
    assert sorted(entries) == sorted({w for w, _ in MATRIX})
    from multiprocessing import shared_memory

    for entry in entries.values():
        handle = shared_memory.SharedMemory(name=entry.segment,
                                            create=False)
        handle.close()
    assert shm.release_all() == len(entries)
    assert shm.manifest_names() == []


TWO_SWEEPS = f"""
from repro.engine.config import EXPERIMENT_CONFIG
from repro.parallel import run_jobs

run_jobs([("{APP}", "none"), ("{APP}", "bop")], EXPERIMENT_CONFIG, 2)
# The second sweep's trace is published after the pool forked, so the
# workers attach a segment they did not inherit.
run_jobs([("{APP2}", "none"), ("{APP2}", "bop")], EXPERIMENT_CONFIG, 2)
"""


def test_two_sweeps_on_one_pool_exit_cleanly():
    """Two sweeps on one persistent pool, the second on a workload
    published after the fork: at exit the parent unlinks every segment
    exactly once, and the resource tracker reports nothing."""
    env = {k: v for k, v in os.environ.items()
           if k not in (shm.SHM_ENV, shm.MP_CONTEXT_ENV, chaos.CHAOS_ENV)}
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen([sys.executable, "-c", TWO_SWEEPS], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, stderr = proc.communicate(timeout=300)
    finally:
        proc.kill()  # no-op once it exited
    assert proc.returncode == 0, stderr
    noisy = [line for line in stderr.splitlines()
             if "KeyError" in line or "resource_tracker" in line]
    assert noisy == [], stderr
    assert glob.glob(f"/dev/shm/repro-{proc.pid}-*") == []


# ----------------------------------------------------------------------
# Work stealing
# ----------------------------------------------------------------------
def test_imbalanced_matrix_records_steals():
    """Six cells of one workload vs two of another at 2 workers: lanes
    that drain their home queue steal the other workload's tail."""
    matrix = ([(APP, "none", f"t{i}") for i in range(6)]
              + [(APP2, "none", "t0"), (APP2, "none", "t1")])
    serial = _ok_figures(run_jobs(matrix, EXPERIMENT_CONFIG, 1))
    obs = FabricObs("steal-test")
    results = run_jobs(matrix, EXPERIMENT_CONFIG, 2, obs=obs)
    obs.finish()
    assert _ok_figures(results) == serial

    counters = obs.metrics.snapshot()["counters"]
    assert counters.get("pool.steals", 0) >= 1
    steal_spans = [s for s in obs.spans if s.name == "steal"]
    assert len(steal_spans) == counters["pool.steals"]
    stolen_units = [s for s in obs.spans
                    if s.name == "unit" and s.attrs.get("stolen")]
    assert len(stolen_units) == counters["pool.steals"]

    report = pool_report(obs.records())
    assert report["steals"] == counters["pool.steals"]
    assert sum(entry["steals"] for entry in report["workers"].values()) \
        == report["steals"]


# ----------------------------------------------------------------------
# Bench honesty: null speedup on serial fallback
# ----------------------------------------------------------------------
def test_check_regression_skips_gate_on_null_speedup(tmp_path, monkeypatch):
    from repro.bench import check_regression

    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"quick": {"instr_per_sec": 1000}, "full": {"instr_per_sec": 1000}}))
    report = {
        "quick": True,
        "serial": {"instr_per_sec": 1000},
        "parallel": {"jobs": 2, "cpus": 1, "speedup_vs_serial": None,
                     "fallback": "serial",
                     "fallback_reason": "host has 1 cpu(s)"},
    }
    assert check_regression(report, str(baseline)) is None
    # The gate annotation derives from the null value itself.
    assert report["baseline"]["parallel_gate"] == "skipped (serial fallback)"

    import repro.bench as bench_mod

    monkeypatch.setattr(bench_mod.os, "cpu_count", lambda: 4)
    report = {
        "quick": True,
        "serial": {"instr_per_sec": 1000},
        "parallel": {"jobs": 2, "cpus": 4, "speedup_vs_serial": 0.8},
    }
    error = check_regression(report, str(baseline))
    assert error is not None and "0.8" in error
    assert report["baseline"]["parallel_gate"] == "enforced"


def _passing_report() -> dict:
    return {
        "quick": True,
        "serial": {"instr_per_sec": 1000},
        "parallel": {"jobs": 2, "cpus": 4, "speedup_vs_serial": 1.3},
        "kernels": {
            "identical": True,
            "speedup_vs_generic": 2.0,
            "generic_cells": [],
        },
    }


def _set(path: str, value):
    def mutate(report):
        *parents, leaf = path.split(".")
        target = report
        for key in parents:
            target = target[key]
        target[leaf] = value
    return mutate


CHECK = ["--check", "baseline.json"]


@pytest.mark.parametrize("options, mutate, message", [
    (CHECK + ["--require-specialized"], lambda report: None, None),
    (CHECK, _set("serial.instr_per_sec", 600),
     "serial throughput regressed: 600 instr/sec < 700"),
    (CHECK, _set("parallel.speedup_vs_serial", 0.8),
     "parallel pass slower than serial: speedup 0.8 < 1.0"),
    (CHECK, _set("kernels.identical", False),
     "specialized kernels are not bit-identical to the generic loop"),
    (["--require-specialized"], _set("kernels.identical", False),
     "specialized kernels are not bit-identical to the generic loop"),
    (CHECK, _set("kernels.speedup_vs_generic", 0.9),
     "specialized kernels slower than the generic loop: 0.9x < 1.0"),
    (["--require-specialized"], _set("kernels.generic_cells", ["a/b"]),
     "generic fallback selected for standard cells: a/b"),
])
def test_bench_gate_table(options, mutate, message, tmp_path, monkeypatch,
                          capsys):
    """Each row of the bench's gate table fails the run, with its
    message, exactly when its option is given and its figure breaks."""
    import repro.bench as bench_mod

    monkeypatch.chdir(tmp_path)
    (tmp_path / "baseline.json").write_text(
        json.dumps({"quick": {"instr_per_sec": 1000}}))
    report = _passing_report()
    mutate(report)
    monkeypatch.setattr(bench_mod, "run_bench", lambda **kwargs: report)
    monkeypatch.setattr(bench_mod.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("REPRO_BENCH_LOG", "")
    monkeypatch.setenv("REPRO_LOG", "quiet")  # errors still print
    code = bench_mod.main(options + ["-o", "out.json"])
    failures = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("FAIL")]
    if message is None:
        assert (code, failures) == (0, [])
    else:
        assert code == 1
        assert len(failures) == 1 and message in failures[0], failures


def test_bench_parallel_reports_null_speedup_on_fallback(monkeypatch):
    from repro import bench as bench_mod
    from repro import parallel

    # Force the fallback prediction regardless of host shape.
    monkeypatch.setattr(parallel, "serial_fallback_reason",
                        lambda cells, jobs: "forced for test")
    section = bench_mod.bench_parallel(MATRIX, EXPERIMENT_CONFIG, 2, 1.0)
    assert section["speedup_vs_serial"] is None
    assert section["fallback"] == "serial"
    assert section["fallback_reason"] == "forced for test"
    assert "steals" in section["utilization"]
