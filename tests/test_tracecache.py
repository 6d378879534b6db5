"""Compiled columnar traces and the on-disk trace cache.

Two contracts are pinned here:

1. **Representation identity** — replaying a :class:`CompiledTrace`
   (columnar fast path) produces byte-for-byte the same simulation
   statistics as replaying the retained object-trace reference path,
   across workloads and prefetcher families (no instruction stream,
   instruction-stream consumer, composite).  The cache serialization
   round-trip is held to the same standard.
2. **Cache behavior** — the trace cache is read-through (build once,
   disk-hit afterwards, memoize in-process), keyed by builder-code
   version so editing any trace-affecting source orphans stale entries,
   and robust to corrupt files.
"""

import pickle

import pytest

from repro.engine.config import EXPERIMENT_CONFIG
from repro.engine.system import simulate
from repro.isa.trace import CompiledTrace, compile_trace
from repro.prefetcher_registry import make_prefetcher
from repro.resultcache import ResultCache, digest_sources
from repro.workloads import get_workload
from repro.workloads.registry import Workload
from repro.workloads import tracecache
from repro.workloads.tracecache import (
    TRACE_CACHE_ENV,
    TRACE_CACHE_VERSION,
    TraceCache,
    trace_code_version,
    trace_counters,
)

WORKLOADS = ["spec.libquantum", "spec.mcf", "spec.astar"]
PREFETCHERS = ["none", "tpc", "bop"]


def _fingerprint(result):
    """Every externally observable statistic of a simulation."""
    return (
        result.core.cycles,
        result.core.instructions,
        result.core.miss_pcs,
        result.core.miss_latency_by_pc,
        result.l1d.demand_misses,
        result.l1d.useful_prefetches,
        result.l2.demand_misses,
        result.l2.useful_prefetches,
        result.prefetch.issued,
        dict(result.prefetch.by_component),
        result.dram.reads,
        result.dram_traffic,
        result.miss_lines_l1,
        result.miss_lines_l2,
        result.attempted_prefetch_lines,
        {name: frozenset(lines)
         for name, lines in result.attempted_by_component.items()},
    )


@pytest.fixture(scope="module")
def reference_traces():
    """One object trace per workload plus its compiled form."""
    traces = {}
    for name in WORKLOADS:
        obj = get_workload(name).object_trace()
        traces[name] = (obj, CompiledTrace.from_trace(obj))
    return traces


# ----------------------------------------------------------------------
# Representation identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("prefetcher", PREFETCHERS)
def test_compiled_replay_matches_object_replay(reference_traces,
                                               workload, prefetcher):
    obj, compiled = reference_traces[workload]
    a = simulate(obj, make_prefetcher(prefetcher), EXPERIMENT_CONFIG,
                 spec=prefetcher)
    b = simulate(compiled, make_prefetcher(prefetcher), EXPERIMENT_CONFIG,
                 spec=prefetcher)
    assert _fingerprint(a) == _fingerprint(b)


def test_column_roundtrip_preserves_replay(reference_traces):
    """Serialize to per-column blobs and back: the cache wire format must
    be as bit-identical as the in-memory compile."""
    obj, compiled = reference_traces[WORKLOADS[0]]
    restored = CompiledTrace.from_column_bytes(
        compiled.name, compiled.column_bytes(), dict(compiled.memory)
    )
    assert restored.columns == compiled.columns
    a = simulate(compiled, make_prefetcher("tpc"), EXPERIMENT_CONFIG,
                 spec="tpc")
    b = simulate(restored, make_prefetcher("tpc"), EXPERIMENT_CONFIG,
                 spec="tpc")
    assert _fingerprint(a) == _fingerprint(b)


def test_compiled_trace_views_match_columns(reference_traces):
    from repro.isa.trace import TRACE_FIELDS

    obj, compiled = reference_traces[WORKLOADS[0]]
    assert len(compiled) == len(obj.records)

    def fields(record):
        return tuple(getattr(record, name) for name in TRACE_FIELDS)

    # Lazily materialized views carry the same data as the originals
    # (TraceRecord compares by identity, so compare field-wise).
    assert [fields(r) for r in compiled.records] \
        == [fields(r) for r in obj.records]
    assert fields(compiled.record(0)) == fields(obj.records[0])
    assert compile_trace(compiled) is compiled
    assert compiled.stats() == obj.stats()
    assert compiled.memory_footprint() == obj.memory_footprint()


def test_trace_stats_cached(reference_traces):
    obj, compiled = reference_traces[WORKLOADS[0]]
    assert obj.stats() is obj.stats()
    assert compiled.stats() is compiled.stats()


# ----------------------------------------------------------------------
# Read-through cache behavior
# ----------------------------------------------------------------------
def _tiny_workload(name="test.tiny"):
    """Unregistered workload with a small simpoint for cheap builds."""
    base = get_workload("spec.libquantum")
    return Workload(name=name, suite="test", build=base.build,
                    simpoint=2_000)


def test_trace_cache_read_through(tmp_path, monkeypatch):
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))

    before = trace_counters()
    first = _tiny_workload()
    t1 = first.trace()  # cold: build + put
    t2 = first.trace()  # warm in-process: memo
    second = _tiny_workload()
    t3 = second.trace()  # warm on-disk: loaded, no build

    after = trace_counters()
    assert after["builds"] - before["builds"] == 1
    assert after["memory_hits"] - before["memory_hits"] == 1
    assert after["disk_hits"] - before["disk_hits"] == 1
    assert t2 is t1
    assert t3.columns == t1.columns
    assert t3.memory == t1.memory

    cache = TraceCache()
    assert cache.entry_path("test.tiny", 2_000).is_file()
    stats = cache.stats()
    assert stats["entries"] == 1 and stats["bytes"] > 0


def test_trace_cache_invalidated_by_builder_source_change(
        tmp_path, monkeypatch):
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
    workload = _tiny_workload()
    workload.trace()
    assert TraceCache().get("test.tiny", 2_000) is not None

    # Simulate an edit to a trace-affecting source file: the code
    # version changes, so the existing entry is never read again.
    monkeypatch.setattr(tracecache, "_trace_code_version_cache",
                        "f" * 16)
    assert TraceCache().get("test.tiny", 2_000) is None
    stats = TraceCache().stats()
    assert stats["entries"] == 0
    assert stats["stale_entries"] == 1
    assert TraceCache().clear(stale_only=True) == 1
    assert TraceCache().stats()["stale_entries"] == 0


def test_trace_cache_stale_format_entry_dropped_and_counted(
        tmp_path, monkeypatch):
    """A pre-bump payload inside the current version directory is
    dropped once, attributed to ``cache_stale_format``, and rebuilt as a
    current-format entry on the next read-through."""
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
    _tiny_workload().trace()
    cache = TraceCache()
    path = cache.entry_path("test.tiny", 2_000)
    payload = pickle.loads(path.read_bytes())
    payload["format"] = TRACE_CACHE_VERSION - 1
    path.write_bytes(pickle.dumps(payload))

    before = trace_counters()
    assert cache.get("test.tiny", 2_000) is None
    after = trace_counters()
    assert after["cache_stale_format"] - before["cache_stale_format"] == 1
    assert not path.exists()  # dropped, not silently rebuilt over forever

    rebuilt = _tiny_workload().trace()
    entry = cache.get("test.tiny", 2_000)
    assert entry is not None and entry.columns == rebuilt.columns
    assert trace_counters()["cache_stale_format"] == \
        after["cache_stale_format"]


def test_trace_cache_corrupt_entry_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
    workload = _tiny_workload()
    workload.trace()
    cache = TraceCache()
    path = cache.entry_path("test.tiny", 2_000)
    path.write_bytes(b"not a pickle")
    assert cache.get("test.tiny", 2_000) is None
    assert not path.exists()  # dropped so the next put() rewrites it


def test_trace_cache_disabled_by_empty_env(tmp_path, monkeypatch):
    monkeypatch.setenv(TRACE_CACHE_ENV, "")
    cache = TraceCache()
    assert not cache.enabled
    assert cache.get("test.tiny", 2_000) is None
    assert cache.put(_tiny_workload().trace(), 2_000) is None
    assert list(tmp_path.iterdir()) == []


def test_trace_code_version_covers_isa_and_workloads():
    version = trace_code_version()
    assert len(version) == 16
    assert version == trace_code_version()  # cached, stable


# ----------------------------------------------------------------------
# Shared code-version digest scheme
# ----------------------------------------------------------------------
def test_digest_sources_tracks_content(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    a.write_text("x = 1\n")
    b.write_text("y = 2\n")
    original = digest_sources([a, b], "salt")
    assert digest_sources([b, a], "salt") == original  # order-insensitive
    assert digest_sources([a, b], "other-salt") != original
    b.write_text("y = 3\n")
    assert digest_sources([a, b], "salt") != original
    b.write_text("y = 2\n")
    assert digest_sources([a, b], "salt") == original  # content-addressed


def test_result_cache_invalidated_by_code_version_change(
        tmp_path, monkeypatch):
    from repro import resultcache
    from repro.experiments.runner import ExperimentRunner

    cold = ExperimentRunner(cache_dir=str(tmp_path))
    cold.run("spec.libquantum", "none")
    assert cold.counters["simulated"] == 1

    monkeypatch.setattr(resultcache, "_code_version_cache", "0" * 16)
    stale = ExperimentRunner(cache_dir=str(tmp_path))
    stale.run("spec.libquantum", "none")
    assert stale.counters["disk_hits"] == 0  # old entry never read
    assert stale.counters["simulated"] == 1
    stats = ResultCache(str(tmp_path)).stats()
    assert stats["stale_entries"] == 1
    assert stats["entries"] == 1  # the re-simulated entry


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cache_cli_covers_both_stores(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    trace_dir = tmp_path / "traces"
    result_dir = tmp_path / "results"
    monkeypatch.setenv(TRACE_CACHE_ENV, str(trace_dir))
    _tiny_workload().trace()

    main(["cache", "stats", "--cache-dir", str(result_dir),
          "--trace-dir", str(trace_dir)])
    out = capsys.readouterr().out
    assert "results: root" in out
    assert "traces: root" in out
    assert "traces: entries (current)" in out

    main(["cache", "clear", "--traces", "--trace-dir", str(trace_dir)])
    out = capsys.readouterr().out
    assert "removed 1 trace entries" in out
    assert "result entries" not in out
    assert TraceCache(str(trace_dir)).stats()["entries"] == 0


def test_tiny_workload_roundtrips_through_pickle_cache(tmp_path,
                                                       monkeypatch):
    """End-to-end cold/warm equivalence at the simulation level."""
    monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path))
    cold = _tiny_workload().trace()
    warm = _tiny_workload().trace()  # fresh instance: disk load
    a = simulate(cold, make_prefetcher("bop"), EXPERIMENT_CONFIG,
                 spec="bop")
    b = simulate(warm, make_prefetcher("bop"), EXPERIMENT_CONFIG,
                 spec="bop")
    assert _fingerprint(a) == _fingerprint(b)
    # The cached payload is a plain dict of blobs, not arbitrary objects.
    path = TraceCache().entry_path("test.tiny", 2_000)
    payload = pickle.loads(path.read_bytes())
    assert sorted(payload) == ["columns", "derived", "format",
                               "memory_addr", "memory_val", "name",
                               "segments", "simpoint"]


def test_identity_harness_is_not_a_trace_code_input():
    """Editing the identity harness never orphans a cached trace: its
    module is outside the trace-code digest, while the fuzz program
    generator, which builds traces, stays inside."""
    from pathlib import Path

    import repro.identity
    import repro.workloads.fuzz

    inputs = {path.resolve() for path in tracecache.trace_code_paths()}
    assert Path(repro.identity.__file__).resolve() not in inputs
    assert Path(repro.workloads.fuzz.__file__).resolve() in inputs
    assert not hasattr(repro.workloads.fuzz, "check_workload")
