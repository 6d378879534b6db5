"""Integration tests asserting the paper's qualitative result *shapes* on
small workload subsets (the full sweeps live in benchmarks/)."""

import pytest

from repro.analysis.metrics import (
    effective_accuracy,
    scope,
    traffic_overhead,
)
from repro.experiments.runner import ExperimentRunner

APPS = [
    "spec.libquantum",   # streaming (LHF)
    "spec.mcf",          # pointer chasing (HHF)
    "spec.h264ref",      # dense regions (MHF)
    "spec.omnetpp",      # array of pointers
]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestHeadlineShapes:
    def test_tpc_speeds_up_every_pattern_app(self, runner):
        for app in APPS:
            baseline = runner.baseline(app)
            tpc = runner.run(app, "tpc")
            assert tpc.cycles <= baseline.cycles * 1.01, app

    def test_tpc_beats_bop_on_average(self, runner):
        from repro.analysis.metrics import geometric_mean
        tpc = geometric_mean([
            runner.baseline(a).cycles / runner.run(a, "tpc").cycles
            for a in APPS
        ])
        bop = geometric_mean([
            runner.baseline(a).cycles / runner.run(a, "bop").cycles
            for a in APPS
        ])
        assert tpc > bop

    def test_tpc_traffic_overhead_small(self, runner):
        for app in APPS:
            baseline = runner.baseline(app)
            tpc = runner.run(app, "tpc")
            assert traffic_overhead(tpc, baseline) < 1.15, app

    def test_tpc_accuracy_high_on_streaming(self, runner):
        app = "spec.libquantum"
        result = runner.run(app, "tpc")
        baseline = runner.baseline(app)
        assert effective_accuracy(result, baseline) > 0.8

    def test_t2_dominates_on_streaming(self, runner):
        app = "spec.libquantum"
        baseline = runner.baseline(app)
        t2 = runner.run(app, "t2")
        stride = runner.run(app, "stride")
        assert t2.cycles <= stride.cycles

    def test_component_division_of_labor(self, runner):
        """On the region app, C1 issues the bulk to L2; on the streaming
        app, T2 issues everything to L1."""
        region = runner.run("spec.h264ref", "tpc")
        assert region.prefetch.by_component.get("C1", 0) > 0
        streaming = runner.run("spec.libquantum", "tpc")
        components = streaming.prefetch.by_component
        assert components.get("T2", 0) > 0
        assert components.get("T2", 0) > components.get("C1", 0)

    def test_tpc_scope_smaller_than_sms_accuracy_higher(self, runner):
        """The paper's core tradeoff: TPC trades scope for accuracy."""
        from repro.analysis.metrics import weighted_average
        sms_points, tpc_points = [], []
        for app in APPS:
            baseline = runner.baseline(app)
            weight = baseline.l1_mpki
            sms = runner.run(app, "sms")
            tpc = runner.run(app, "tpc")
            sms_points.append((scope(sms, baseline),
                               effective_accuracy(sms, baseline), weight))
            tpc_points.append((scope(tpc, baseline),
                               effective_accuracy(tpc, baseline), weight))
        sms_accuracy = weighted_average((a, w) for _, a, w in sms_points)
        tpc_accuracy = weighted_average((a, w) for _, a, w in tpc_points)
        assert tpc_accuracy > sms_accuracy


class TestMulticoreShape:
    def test_tpc_helps_in_shared_environment(self):
        from repro.engine.multicore import simulate_multicore
        from repro.prefetcher_registry import make_prefetcher
        from repro.workloads import get_workload

        traces = [get_workload(a).trace() for a in APPS]
        without = simulate_multicore(traces)
        with_tpc = simulate_multicore(
            traces, [make_prefetcher("tpc") for _ in APPS]
        )
        gains = [
            a.ipc / b.ipc
            for a, b in zip(with_tpc.per_core, without.per_core)
        ]
        assert sum(gains) / len(gains) > 1.05


class TestExperimentRunner:
    def test_caching(self, runner):
        before = runner.cache_size()
        runner.run("spec.libquantum", "tpc")
        mid = runner.cache_size()
        runner.run("spec.libquantum", "tpc")
        assert runner.cache_size() == mid >= before

    def test_tracked_runs_replay_the_cached_cell(self, runner):
        from repro.analysis.credit import CreditTracker
        tracker_a = CreditTracker()
        tracker_b = CreditTracker()
        first = runner.run_tracked("spec.libquantum", "t2", tracker_a)
        simulated = runner.counters["simulated"]
        second = runner.run_tracked("spec.libquantum", "t2", tracker_b)
        assert second is first is runner.run("spec.libquantum", "t2")
        assert runner.counters["simulated"] == simulated
        assert (list(tracker_a.buckets.items())
                == list(tracker_b.buckets.items()))
        assert tracker_a.bucket().issued > 0

    def test_factory_spec_with_cache_key(self, runner):
        from repro.core.composite import make_tpc

        def factory():
            return make_tpc(components="t")

        factory.cache_key = "tpc:t"
        result = runner.run("spec.libquantum", factory)
        assert result.prefetch.issued > 0
