"""Fault tolerance: isolation, retry, chaos, journal (docs/robustness.md).

The contract under test is *recoverable degradation*: injected faults —
worker kills, hung cells, torn and corrupted cache writes, interrupted
matrices — must never abort a sweep or change a single reproduced
number.  Chaos directives fire on a cell's first attempt only, so every
injected fault is recoverable by construction and the assertions here
can demand bit-identical figures.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.config import EXPERIMENT_CONFIG
from repro.experiments import report_all
from repro.experiments.runner import ExperimentRunner, simulate_spec
from repro.faults import (
    CellFailure,
    RetryPolicy,
    atomic_write_pickle,
    failures_in,
)
from repro.faults import chaos
from repro.faults.atomic import tmp_path_for
from repro.faults.faultlog import faults_since
from repro.faults.journal import MatrixJournal
from repro.obs import metrics
from repro.parallel import run_jobs, shutdown_pool
from repro.resultcache import digest_sources

APP = "spec.libquantum"
APP2 = "spec.astar"


@pytest.fixture(autouse=True)
def faults(monkeypatch):
    """Every test starts with chaos off and the log disabled; calling
    the fixture's value reads the fault counts the test logged."""
    monkeypatch.setenv("REPRO_FAULT_LOG", "")
    chaos.reset_chaos()
    before = metrics.mark()
    yield lambda: faults_since(before)
    chaos.reset_chaos()
    shutdown_pool()


def _figures(result):
    return (result.core.cycles, result.core.instructions,
            result.l1d.demand_misses, result.dram_traffic)


class _BoomFactory:
    """Picklable spec whose build always raises (a genuinely bad cell)."""

    cache_key = "boom"

    def __call__(self):
        raise RuntimeError("boom cell")


# ----------------------------------------------------------------------
# Retry policy and chaos grammar
# ----------------------------------------------------------------------
def test_retry_policy_env_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_MAX", "5")
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5")
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "7.5")
    policy = RetryPolicy.from_env()
    assert policy.max_attempts == 5
    assert policy.backoff_seconds == 0.5
    assert policy.timeout_seconds == 7.5
    # Deterministic exponential backoff, 1-based retries.
    assert [policy.delay(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]
    monkeypatch.setenv("REPRO_RETRY_MAX", "not-a-number")
    assert RetryPolicy.from_env().max_attempts == 3  # malformed -> default


def test_chaos_spec_parse_and_roundtrip(monkeypatch):
    text = ("kill=spec.mcf/tpc;slow=spec.libquantum/bop:6.0;"
            "torn=trace:gemm;corrupt=result:spec.mcf;"
            "garbage;slow=bad:notafloat;=empty")
    config = chaos.parse_spec(text)
    assert config.kill == ("spec.mcf/tpc",)
    assert config.slow == (("spec.libquantum/bop", 6.0),)
    assert config.torn == ("trace:gemm",)
    assert config.corrupt == ("result:spec.mcf",)
    assert config.enabled
    # spec() serializes back to the same grammar.
    assert chaos.parse_spec(config.spec()) == config
    # The env variable is the canonical channel and re-parses on change.
    monkeypatch.setenv(chaos.CHAOS_ENV, "kill=a/b")
    assert chaos.get_chaos().kill == ("a/b",)
    monkeypatch.setenv(chaos.CHAOS_ENV, "kill=c/d")
    assert chaos.get_chaos().kill == ("c/d",)
    monkeypatch.delenv(chaos.CHAOS_ENV)
    assert not chaos.get_chaos().enabled


# ----------------------------------------------------------------------
# Per-cell isolation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_jobs", [1, 2])
def test_failing_cell_is_isolated_not_fatal(n_jobs, faults):
    """One bad cell yields a CellFailure slot; its siblings complete and
    the phase timings fill even though the matrix degraded."""
    jobs = [(APP, "none"), (APP, _BoomFactory()), (APP2, "none")]
    policy = RetryPolicy(max_attempts=2, backoff_seconds=0.001)
    timings: dict = {}
    results = run_jobs(jobs, EXPERIMENT_CONFIG, n_jobs,
                       timings=timings, policy=policy)
    assert results[0].workload == APP
    assert results[2].workload == APP2
    failure = results[1]
    assert isinstance(failure, CellFailure)
    assert failures_in(results) == [failure]
    assert failure.kind == "error"
    assert failure.attempts == 2
    assert "boom cell" in failure.error
    assert failure.spec == "boom"
    assert "boom" in failure.describe()
    assert set(timings) == {"trace_warm_seconds", "simulate_seconds",
                            "merge_seconds"}
    counters = faults()
    assert counters["cell_retry"] >= 1
    assert counters["cell_failed"] == 1


def test_prefill_skips_failed_cells_and_counts_them(tmp_path):
    runner = ExperimentRunner(jobs=2, journal_dir=str(tmp_path),
                              retry=RetryPolicy(max_attempts=2,
                                                backoff_seconds=0.001))
    stored = runner.prefill([(APP, "none"), (APP, _BoomFactory())])
    assert stored == 1
    assert runner.counters["failed_cells"] == 1
    # The failure is journaled for post-mortems.
    assert runner.journal.stats()["failed"] == 1
    # The good cell is a memory hit; the bad one raises *in context*.
    assert runner.run(APP, "none").workload == APP
    with pytest.raises(RuntimeError, match="boom cell"):
        runner.run(APP, _BoomFactory())


# ----------------------------------------------------------------------
# Chaos: worker kill and hung-cell timeout
# ----------------------------------------------------------------------
def test_chaos_kill_recovers_bit_identical(monkeypatch, faults):
    reference = [_figures(simulate_spec(app, "none", "", EXPERIMENT_CONFIG))
                 for app in (APP, APP2)]
    shutdown_pool()  # fresh pool must fork with the chaos env below
    monkeypatch.setenv(chaos.CHAOS_ENV, f"kill={APP}/none")
    chaos.reset_chaos()
    results = run_jobs([(APP, "none"), (APP2, "none")], EXPERIMENT_CONFIG, 2,
                       policy=RetryPolicy(max_attempts=3,
                                          backoff_seconds=0.01))
    assert not failures_in(results)
    assert [_figures(r) for r in results] == reference
    counters = faults()
    assert counters["worker_lost"] >= 1
    assert counters["pool_degraded"] >= 1


def test_chaos_slow_cell_hits_timeout_and_retries(monkeypatch, faults):
    reference = [_figures(simulate_spec(app, "none", "", EXPERIMENT_CONFIG))
                 for app in (APP, APP2)]
    shutdown_pool()
    monkeypatch.setenv(chaos.CHAOS_ENV, f"slow={APP}/none:30")
    chaos.reset_chaos()
    policy = RetryPolicy(max_attempts=3, backoff_seconds=0.01,
                         timeout_seconds=4.0)
    results = run_jobs([(APP, "none"), (APP2, "none")], EXPERIMENT_CONFIG, 2,
                       policy=policy)
    assert not failures_in(results)
    assert [_figures(r) for r in results] == reference
    counters = faults()
    assert counters["cell_timeout"] >= 1
    assert counters["pool_degraded"] >= 1


def test_chaos_kill_never_fires_in_parent(monkeypatch):
    """The serial path must be immune to kill directives — only pool
    workers (marked by the initializer) may chaos-exit."""
    monkeypatch.setenv(chaos.CHAOS_ENV, f"kill={APP}/none")
    chaos.reset_chaos()
    result = simulate_spec(APP, "none", "", EXPERIMENT_CONFIG)
    results = run_jobs([(APP, "none")], EXPERIMENT_CONFIG, 1)
    assert _figures(results[0]) == _figures(result)


# ----------------------------------------------------------------------
# Chaos: torn and corrupted cache writes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("verb", ["torn", "corrupt"])
def test_bad_cache_entry_is_miss_with_single_resimulation(tmp_path, verb,
                                                        faults):
    chaos.set_chaos(chaos.parse_spec(f"{verb}=result:{APP}/none"))
    writer = ExperimentRunner(cache_dir=str(tmp_path))
    reference = _figures(writer.run(APP, "none"))
    chaos.set_chaos(None)

    reader = ExperimentRunner(cache_dir=str(tmp_path))
    assert _figures(reader.run(APP, "none")) == reference
    assert reader.counters["simulated"] == 1  # the bad entry was a miss
    assert reader.counters["disk_hits"] == 0
    assert faults()["cache_corrupt"] == 1

    # The re-simulation rewrote a good entry: third reader hits disk.
    warm = ExperimentRunner(cache_dir=str(tmp_path))
    assert _figures(warm.run(APP, "none")) == reference
    assert warm.counters["simulated"] == 0
    assert warm.counters["disk_hits"] == 1


# ----------------------------------------------------------------------
# Resumable-matrix journal
# ----------------------------------------------------------------------
def test_interrupted_matrix_resumes_with_zero_resimulations(tmp_path,
                                                          faults):
    cache = str(tmp_path / "cache")
    journal = str(tmp_path / "journal")
    cells = [(APP, "none"), (APP, "bop"), (APP2, "none")]

    interrupted = ExperimentRunner(cache_dir=cache, journal_dir=journal)
    reference = {cell: _figures(interrupted.run(*cell))
                 for cell in cells[:2]}  # "interrupt" after two cells

    resumed = ExperimentRunner(cache_dir=cache, journal_dir=journal)
    for cell in cells:
        figures = _figures(resumed.run(*cell))
        if cell in reference:
            assert figures == reference[cell]
    assert resumed.counters["resume_hits"] == 2  # settled cells: no sims
    assert resumed.counters["disk_hits"] == 2
    assert resumed.counters["simulated"] == 1  # only the new cell
    assert faults()["resume_hit"] == 2


def test_journal_scoping_load_and_torn_lines(tmp_path):
    journal = MatrixJournal(tmp_path, "cfg1", code_version="deadbeef")
    journal.record_ok(APP, "none", "")
    journal.record_ok(APP, "none", "")  # dedup: one line, not two
    journal.record_ok(APP2, "tpc", "l1")
    journal.record_failure(CellFailure(
        workload=APP, spec="bop", tag="", kind="timeout",
        error="", traceback="", attempts=3))
    # The torn final line an interrupted writer leaves behind.
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"status": "ok", "workl')

    reloaded = MatrixJournal(tmp_path, "cfg1", code_version="deadbeef")
    assert reloaded.has((APP, "none", ""))
    assert reloaded.has((APP2, "tpc", "l1"))
    assert not reloaded.has((APP2, "none", ""))
    assert reloaded.stats()["completed"] == 2
    assert reloaded.stats()["failed"] == 1
    assert len(journal.path.read_text().splitlines()) == 4

    # Another config digest or code version is a different journal file.
    other = MatrixJournal(tmp_path, "cfg2", code_version="deadbeef")
    assert not other.has((APP, "none", ""))
    assert other.path != journal.path

    journal.clear()
    assert not journal.path.exists()
    assert MatrixJournal(tmp_path, "cfg1",
                         code_version="deadbeef").stats()["completed"] == 0


# ----------------------------------------------------------------------
# Atomic writes (the id(result) temp-name collision regression)
# ----------------------------------------------------------------------
def test_atomic_write_temp_name_is_pid_unique(tmp_path):
    target = tmp_path / "entry.pkl"
    tmp = tmp_path_for(target)
    assert tmp.name == f"entry.pkl.tmp.{os.getpid():x}"
    # A concurrent writer in another process can never share the name.
    src = Path(repro.__file__).resolve().parent.parent
    other = subprocess.run(
        [sys.executable, "-c",
         "from pathlib import Path;"
         "from repro.faults.atomic import tmp_path_for;"
         f"print(tmp_path_for(Path({str(target)!r})))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert other != str(tmp)
    assert other.startswith(str(target) + ".tmp.")


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "entry.pkl"
    atomic_write_pickle(target, {"value": 42})
    with open(target, "rb") as fh:
        assert pickle.load(fh) == {"value": 42}
    atomic_write_pickle(target, {"value": 43})  # overwrite is atomic too
    with open(target, "rb") as fh:
        assert pickle.load(fh) == {"value": 43}
    assert [p.name for p in target.parent.iterdir()] == ["entry.pkl"]


# ----------------------------------------------------------------------
# Code-version digests (the moved-file staleness regression)
# ----------------------------------------------------------------------
def test_digest_sources_uses_package_relative_paths(tmp_path):
    inside = Path(repro.__file__).resolve().parent / "faults" / "chaos.py"
    copy = tmp_path / "chaos.py"
    copy.write_bytes(inside.read_bytes())
    # Same file name, same bytes, different location within (vs outside)
    # the package: the digest must differ, else a moved source file
    # would leave stale cache entries live.
    assert digest_sources([inside], "s") != digest_sources([copy], "s")
    # Equivalent spellings of the same path agree.
    dotted = inside.parent / ".." / "faults" / "chaos.py"
    assert digest_sources([inside], "s") == digest_sources([dotted], "s")


# ----------------------------------------------------------------------
# Fault telemetry
# ----------------------------------------------------------------------
def test_fault_log_records_share_the_event_schema(tmp_path, monkeypatch,
                                                 faults):
    log = tmp_path / "faults.jsonl"
    monkeypatch.setenv("REPRO_FAULT_LOG", str(log))
    from repro.faults import CELL_RETRY, log_fault

    log_fault(CELL_RETRY, workload=APP, spec="tpc", tag="l1",
              attempt=2, seconds=1.5, detail="RuntimeError('x')")
    record = json.loads(log.read_text().splitlines()[0])
    # The fixed key set every repro event carries, so `repro events`
    # filters and summarizes fault records unchanged.
    assert {"kind", "cycle", "line", "component", "level",
            "pc", "dur"} <= set(record)
    assert record["kind"] == "cell_retry"
    assert record["component"] == "tpc"
    assert record["level"] == 2
    assert record["dur"] == 1500
    assert record["workload"] == APP
    assert faults()["cell_retry"] == 1


# ----------------------------------------------------------------------
# report_all section isolation
# ----------------------------------------------------------------------
def test_report_all_isolates_failing_sections(monkeypatch, faults):
    fake = [
        ("good section", lambda runner: "rendered fine"),
        ("bad section", lambda runner: 1 / 0),
        ("later section", lambda runner: "still rendered"),
    ]
    monkeypatch.setattr(report_all, "SECTIONS", fake)
    errors: list = []
    text = report_all.generate(runner=object(), section_errors=errors)
    assert "rendered fine" in text
    assert "still rendered" in text
    assert "SECTION FAILED" in text
    assert "ZeroDivisionError" in text
    assert errors == ["bad section"]
    assert faults()["section_failed"] == 1
    with pytest.raises(ZeroDivisionError):
        report_all.generate(runner=object(), fail_fast=True)
