"""Telemetry subsystem: invariance, lifecycle reconciliation, sampling,
manifests, trace IO, and the profile/events CLI verbs.

The two contract tests the PR hangs on:

* **Invariance** — attaching telemetry must not perturb timing: every
  ``SimulationResult`` field is bit-identical with and without a hub,
  and with and without a sampler or a credit tracker on a contended
  trace (observer purity).
* **Reconciliation** — lifecycle event counts must agree exactly with
  the hierarchy's aggregate ``PrefetchStats`` (and the first-use /
  evicted-unused / pollution counters), so the trace can be trusted as
  the ground truth the aggregates summarize.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro import make_prefetcher, simulate
from repro.analysis.credit import CreditTracker
from repro.analysis.svgplot import lines_svg
from repro.analysis.windows import windows_from_events
from repro.engine.kernel import GENERIC
from repro.experiments.runner import spec_key
from repro.prefetcher_registry import available_prefetchers
from repro.telemetry import (
    Telemetry,
    TimeSeriesSampler,
    chrome_trace,
    filter_events,
    read_jsonl,
    summarize,
    write_jsonl,
    write_manifest,
)
from repro.telemetry import events as ev
from repro.workloads import get_workload
from repro.workloads.fuzz import fuzz_workload
from repro.identity import diff_fields, identity_tuple
from tests.conftest import build_aop_trace, build_strided_trace


@pytest.fixture(scope="module")
def small_trace():
    return build_strided_trace(elements=2500, name="tele-strided")


@pytest.fixture(scope="module")
def plain_run(small_trace):
    return simulate(small_trace, make_prefetcher("tpc"))


@pytest.fixture(scope="module")
def telemetry_run(small_trace):
    telemetry = Telemetry(sampler=TimeSeriesSampler(interval=1024))
    result = simulate(small_trace, make_prefetcher("tpc"),
                      telemetry=telemetry)
    return result, telemetry


class TestInvariance:
    def test_all_result_fields_bit_identical(self, plain_run, telemetry_run):
        result, _ = telemetry_run
        assert result.core == plain_run.core
        assert result.l1d == plain_run.l1d
        assert result.l2 == plain_run.l2
        assert result.l3 == plain_run.l3
        assert result.dram == plain_run.dram
        assert result.prefetch == plain_run.prefetch
        assert result.miss_lines_l1 == plain_run.miss_lines_l1
        assert result.miss_lines_l2 == plain_run.miss_lines_l2
        assert (result.attempted_prefetch_lines
                == plain_run.attempted_prefetch_lines)
        assert result.pollution_misses_l1 == plain_run.pollution_misses_l1
        assert result.pollution_misses_l2 == plain_run.pollution_misses_l2

    def test_baseline_unaffected(self, small_trace):
        plain = simulate(small_trace)
        tele = simulate(small_trace, telemetry=Telemetry())
        assert tele.cycles == plain.cycles
        assert tele.core == plain.core


@pytest.fixture(scope="module")
def shadow_mix():
    return get_workload("stress.shadow_mix").trace()


class TestObserverPurity:
    """A sampler and a credit tracker only observe.  On a contended
    compiled trace (``stress.shadow_mix``: MSHR back-pressure, DRAM
    queueing, pollution), a cell with either equals the plain cell on
    every reported figure, under every registered prefetcher."""

    @pytest.mark.parametrize("name", available_prefetchers())
    def test_observed_cells_equal_the_plain_cell(self, name, shadow_mix):
        plain = simulate(shadow_mix, make_prefetcher(name))
        sampler = TimeSeriesSampler(interval=1000)
        sampled = simulate(shadow_mix, make_prefetcher(name),
                           telemetry=Telemetry(sampler=sampler))
        tracked = simulate(shadow_mix, make_prefetcher(name),
                           tracker=CreditTracker())
        assert len(sampler.samples) == len(shadow_mix) // 1000
        assert identity_tuple(sampled) == identity_tuple(plain), (
            diff_fields(sampled, plain))
        assert identity_tuple(tracked) == identity_tuple(plain), (
            diff_fields(tracked, plain))
        # The plain cell replays on the segmented tier; a telemetry hub
        # sends the cell to the generic loop.
        assert plain.kernel.startswith("segmented+")
        assert sampled.kernel == GENERIC

    @pytest.mark.parametrize("name", ["tpc", "tpc-adaptive", "t2", "p1",
                                      "c1"])
    @pytest.mark.parametrize("seed", range(5))
    def test_observed_tpc_cells_equal_the_plain_cell_over_fuzz_seeds(
            self, name, seed):
        """The same purity over fuzz programs, under the paper's
        composite and its components.  The hub also reaches the
        coordinator, whose ``route`` then emits a ``trained`` event at
        each PC's first claim: a branch no plain cell takes."""
        trace = fuzz_workload(seed).trace()
        plain = simulate(trace, make_prefetcher(name))
        telemetry = Telemetry(sampler=TimeSeriesSampler(interval=1000))
        sampled = simulate(trace, make_prefetcher(name), telemetry=telemetry)
        tracked = simulate(trace, make_prefetcher(name),
                           tracker=CreditTracker())
        assert identity_tuple(sampled) == identity_tuple(plain), (
            diff_fields(sampled, plain))
        assert identity_tuple(tracked) == identity_tuple(plain), (
            diff_fields(tracked, plain))
        assert plain.kernel.startswith("segmented+")
        assert sampled.kernel == GENERIC
        if name == "tpc":
            assert telemetry.count(ev.TRAINED) > 0


class TestReconciliation:
    def test_attempt_outcomes_match_prefetch_stats(self, telemetry_run):
        result, telemetry = telemetry_run
        assert telemetry.reconcile(result.prefetch) == {}
        assert telemetry.count(ev.ISSUED) == result.prefetch.issued
        assert telemetry.count(ev.FILTERED) == result.prefetch.filtered
        assert telemetry.count(ev.DROPPED_MSHR) == result.prefetch.dropped_mshr
        assert telemetry.count(ev.DROPPED_DRAM) == result.prefetch.dropped_dram

    def test_every_issue_fills(self, telemetry_run):
        _, telemetry = telemetry_run
        assert telemetry.count(ev.FILLED) == telemetry.count(ev.ISSUED)

    def test_first_use_matches_useful_counters(self, telemetry_run):
        result, telemetry = telemetry_run
        useful = (result.l1d.useful_prefetches + result.l2.useful_prefetches
                  + result.l3.useful_prefetches)
        assert telemetry.count(ev.FIRST_USE) == useful

    def test_pollution_matches_shadow_counters(self, telemetry_run):
        result, telemetry = telemetry_run
        assert telemetry.count(ev.POLLUTION_HIT) == (
            result.pollution_misses_l1 + result.pollution_misses_l2
        )

    def test_per_component_counters_sum_to_totals(self, telemetry_run):
        result, telemetry = telemetry_run
        components = telemetry.components()
        assert components  # TPC must have issued something
        assert sum(
            telemetry.count(f"{ev.ISSUED}.{c}") for c in components
        ) == result.prefetch.issued

    def test_events_are_tagged(self, telemetry_run):
        _, telemetry = telemetry_run
        issued = [e for e in telemetry.events if e.kind == ev.ISSUED]
        assert issued
        assert all(e.component is not None for e in issued)
        assert all(e.pc != -1 for e in issued)
        assert all(e.line != -1 for e in issued)
        assert all(e.dur >= 0 for e in issued)

    def test_trained_events_from_coordinator(self, telemetry_run):
        _, telemetry = telemetry_run
        trained = [e for e in telemetry.events if e.kind == ev.TRAINED]
        assert trained
        # One per claimed PC, tagged with the request-level component tag.
        assert len({e.pc for e in trained}) == len(trained)
        assert all(e.component in ("T2", "P1", "C1") for e in trained)

    @pytest.mark.parametrize("name", ["tpc", "nextline"])
    def test_credit_log_matches_lifecycle_events(self, name, shadow_mix):
        """The segmented cell's credit log is the protocol points a
        telemetry run on the generic loop records independently: every
        ISSUED, every L1/L2 FIRST_USE and every POLLUTION_HIT, in the
        same order, so counted by kind too."""
        result = simulate(shadow_mix, make_prefetcher(name))
        telemetry = Telemetry()
        observed = simulate(shadow_mix, make_prefetcher(name),
                            telemetry=telemetry)
        assert result.kernel.startswith("segmented+")
        assert observed.kernel == GENERIC
        logged = []
        for entry in result.credit_log:
            if entry[0] == "on_prefetch_issued":
                logged.append((ev.ISSUED, 0) + entry[1:])
            elif entry[0] == "on_useful":
                _, line, component, level = entry
                logged.append((ev.FIRST_USE, level, line, component))
            else:
                logged.append((ev.POLLUTION_HIT, entry[1]))
        events = []
        for e in telemetry.events:
            if e.kind == ev.ISSUED:
                events.append((e.kind, 0, e.line, e.component))
            elif e.kind == ev.FIRST_USE and e.level in (1, 2):
                events.append((e.kind, e.level, e.line, e.component))
            elif e.kind == ev.POLLUTION_HIT:
                events.append((e.kind, e.level))
        counts = Counter(entry[:2] for entry in logged)
        assert counts == Counter(event[:2] for event in events)
        assert counts[(ev.ISSUED, 0)] == telemetry.count(ev.ISSUED) > 0
        assert counts[(ev.POLLUTION_HIT, 1)] + counts[(ev.POLLUTION_HIT, 2)] \
            == telemetry.count(ev.POLLUTION_HIT) > 0
        assert logged == events


class TestSampler:
    def test_samples_cover_the_run(self, telemetry_run):
        result, telemetry = telemetry_run
        samples = telemetry.sampler.samples
        assert len(samples) == result.core.instructions // 1024
        assert samples[-1].cycle <= result.cycles
        assert all(s.ipc > 0 for s in samples)
        assert all(s.l1_mpki >= 0 for s in samples)

    def test_window_issue_counts_sum(self, telemetry_run):
        result, telemetry = telemetry_run
        sampled_issue = sum(s.issued for s in telemetry.sampler.samples)
        # The tail window after the last sample is not recorded.
        assert 0 < sampled_issue <= result.prefetch.issued

    def test_component_accuracy_nonnegative(self, telemetry_run):
        # A window's accuracy can exceed 1.0 when prefetches issued in an
        # earlier window are first-used in this one; it is never negative.
        _, telemetry = telemetry_run
        seen = []
        for sample in telemetry.sampler.samples:
            for accuracy in sample.component_accuracy.values():
                assert accuracy >= 0.0
                seen.append(accuracy)
        assert seen

    def test_svg_rendering(self, telemetry_run):
        _, telemetry = telemetry_run
        svg = telemetry.sampler.to_svg()
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "polyline" in svg

    def test_lines_svg_rejects_empty(self):
        with pytest.raises(ValueError):
            lines_svg({})


class TestTraceIO:
    def test_jsonl_roundtrip(self, telemetry_run, tmp_path):
        _, telemetry = telemetry_run
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(telemetry.events, path)
        assert count == len(telemetry.events)
        loaded = list(read_jsonl(path))
        assert len(loaded) == count
        assert loaded[0] == telemetry.events[0].as_dict()

    def test_filter_and_summarize(self, telemetry_run):
        _, telemetry = telemetry_run
        issued = list(filter_events(telemetry.events, kind=ev.ISSUED))
        assert len(issued) == telemetry.count(ev.ISSUED)
        summary = summarize(telemetry.events)
        assert summary["total"] == len(telemetry.events)
        assert summary["by_kind"][ev.ISSUED] == telemetry.count(ev.ISSUED)
        assert summary["first_cycle"] <= summary["last_cycle"]

    def test_windows_from_events(self, telemetry_run):
        _, telemetry = telemetry_run
        windows = windows_from_events(telemetry.events, window_events=512)
        assert sum(w.issued for w in windows) == telemetry.count(ev.ISSUED)
        assert sum(w.useful for w in windows) == telemetry.count(ev.FIRST_USE)

    def test_chrome_trace_structure(self, telemetry_run):
        _, telemetry = telemetry_run
        trace = chrome_trace(telemetry.events)
        text = json.dumps(trace)
        assert json.loads(text) == trace  # serializable
        records = trace["traceEvents"]
        phases = {r["ph"] for r in records}
        assert phases <= {"M", "X", "i"}
        for record in records:
            assert {"ph", "pid", "tid", "name"} <= set(record)
            if record["ph"] == "X":
                assert record["dur"] >= 1
        # Thread-name metadata for every component row.
        names = {r["args"]["name"] for r in records if r["ph"] == "M"}
        assert names  # at least one component thread

    def test_record_events_false_keeps_counters_only(self, small_trace):
        telemetry = Telemetry(record_events=False)
        result = simulate(small_trace, make_prefetcher("tpc"),
                          telemetry=telemetry)
        assert telemetry.events == []
        assert telemetry.count(ev.ISSUED) == result.prefetch.issued


class TestManifest:
    def test_simulate_stamps_manifest(self, telemetry_run):
        result, telemetry = telemetry_run
        manifest = result.manifest
        assert manifest is not None
        assert manifest.workload == "tele-strided"
        assert manifest.prefetcher == "tpc"
        assert manifest.metrics["cycles"] == result.cycles
        assert manifest.counters == telemetry.snapshot()
        assert manifest.git_sha is None or len(manifest.git_sha) == 40

    def test_run_id_deterministic_and_filesystem_safe(self, telemetry_run):
        result, _ = telemetry_run
        run_id = result.manifest.run_id
        assert run_id == result.manifest.run_id
        assert "/" not in run_id and " " not in run_id

    def test_write_and_read_back(self, telemetry_run, tmp_path):
        result, _ = telemetry_run
        path = write_manifest(result.manifest, tmp_path / "runs")
        assert path.name == "manifest.json"
        assert path.parent.name == result.manifest.run_id
        loaded = json.loads(path.read_text())
        assert loaded["run_id"] == result.manifest.run_id
        assert loaded["metrics"]["cycles"] == result.cycles
        # Re-writing the identical run lands in the same directory.
        assert write_manifest(result.manifest, tmp_path / "runs") == path

    def test_plain_run_manifest_has_empty_counters(self, plain_run):
        assert plain_run.manifest is not None
        assert plain_run.manifest.counters == {}


class TestSpecKey:
    def test_anonymous_factories_are_stable(self):
        key_a = spec_key(lambda: make_prefetcher("stride"))
        key_b = spec_key(lambda: make_prefetcher("stride"))
        assert key_a == key_b
        assert "0x" not in key_a  # no object ids leak into the key

    def test_different_builds_get_different_keys(self):
        assert spec_key(lambda: make_prefetcher("stride")) != spec_key(
            lambda: make_prefetcher("bop")
        )


class TestCli:
    def test_profile_and_events_verbs(self, tmp_path, capsys):
        from repro.__main__ import main

        trace_path = tmp_path / "trace.jsonl"
        chrome_path = tmp_path / "chrome.json"
        main([
            "profile", "spec.libquantum", "stride",
            "--trace", str(trace_path),
            "--chrome", str(chrome_path),
            "--runs-dir", str(tmp_path / "runs"),
            "--sample-interval", "4096",
        ])
        out = capsys.readouterr().out
        assert "reconciliation" in out and "ok" in out
        assert trace_path.exists() and chrome_path.exists()
        assert list((tmp_path / "runs").glob("*/manifest.json"))
        chrome = json.loads(chrome_path.read_text())
        assert chrome["traceEvents"]

        main(["events", str(trace_path)])
        out = capsys.readouterr().out
        assert "total" in out and "kind issued" in out

        main(["events", str(trace_path), "--kind", "issued", "--list",
              "--limit", "5"])
        out = capsys.readouterr().out
        assert "issued" in out


class TestMultiComponentLifecycle:
    def test_aop_exercises_multiple_components(self):
        trace = build_aop_trace(count=1500, name="tele-aop")
        telemetry = Telemetry()
        result = simulate(trace, make_prefetcher("tpc"), telemetry=telemetry)
        assert telemetry.reconcile(result.prefetch) == {}
        assert set(telemetry.components()) == set(
            result.prefetch.by_component
        )
        for component, issued in result.prefetch.by_component.items():
            assert telemetry.count(f"{ev.ISSUED}.{component}") == issued
