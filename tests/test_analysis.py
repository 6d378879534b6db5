"""Tests for metrics, the offline classifier, credit accounting, storage,
and report rendering."""

from collections import Counter

import pytest


from repro.analysis.classify import Category, OfflineClassifier
from repro.analysis.credit import CreditTracker
from repro.analysis.metrics import (
    effective_accuracy,
    effective_coverage,
    geometric_mean,
    scope,
    traffic_overhead,
    weighted_average,
)
from repro.analysis.report import format_bars, format_scatter, format_table
from repro.analysis.storage import PAPER_STORAGE_KB, storage_table
from repro.engine.system import SimulationResult, simulate
from repro.prefetcher_registry import make_prefetcher


def fake_result(misses_l1=100, issued=50, attempted=None, traffic=1000,
                miss_lines=None, cycles=10_000):
    from repro.engine.ooo import CoreStats
    from repro.memory.cache import CacheStats
    from repro.memory.dram import DramStats
    from repro.memory.hierarchy import PrefetchStats

    core = CoreStats(instructions=100_000, cycles=cycles)
    l1 = CacheStats(demand_accesses=1000, demand_misses=misses_l1)
    dram = DramStats(reads=traffic)
    prefetch = PrefetchStats(issued=issued)
    return SimulationResult(
        workload="w",
        prefetcher="p",
        core=core,
        l1d=l1,
        l2=CacheStats(),
        l3=CacheStats(),
        dram=dram,
        prefetch=prefetch,
        miss_lines_l1=Counter(miss_lines or {}),
        attempted_prefetch_lines=attempted or set(),
    )


class TestMetrics:
    def test_scope_definition(self):
        baseline = fake_result(miss_lines={1: 10, 2: 30, 3: 60})
        result = fake_result(attempted={2, 3, 99})
        assert scope(result, baseline) == pytest.approx(0.9)

    def test_scope_empty_footprint(self):
        assert scope(fake_result(), fake_result()) == 0.0

    def test_effective_accuracy_positive(self):
        baseline = fake_result(misses_l1=100)
        result = fake_result(misses_l1=40, issued=100)
        assert effective_accuracy(result, baseline) == pytest.approx(0.6)

    def test_effective_accuracy_negative_on_pollution(self):
        baseline = fake_result(misses_l1=100)
        result = fake_result(misses_l1=150, issued=100)
        assert effective_accuracy(result, baseline) == pytest.approx(-0.5)

    def test_effective_accuracy_zero_issued(self):
        assert effective_accuracy(fake_result(issued=0), fake_result()) == 0.0

    def test_effective_coverage(self):
        baseline = fake_result(misses_l1=200)
        result = fake_result(misses_l1=50)
        assert effective_coverage(result, baseline) == pytest.approx(0.75)

    def test_traffic_overhead(self):
        baseline = fake_result(traffic=1000)
        result = fake_result(traffic=1100)
        assert traffic_overhead(result, baseline) == pytest.approx(1.1)

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])

    def test_weighted_average(self):
        assert weighted_average([(1.0, 1.0), (3.0, 3.0)]) == pytest.approx(2.5)
        assert weighted_average([]) == 0.0


class TestOfflineClassifier:
    def test_strided_trace_is_lhf(self, strided_trace):
        classifier = OfflineClassifier(strided_trace)
        counts = classifier.category_counts(
            strided_trace.memory_footprint()
        )
        total = sum(counts.values())
        assert counts[Category.LHF] / total > 0.9

    def test_scattered_chain_is_hhf(self, chain_trace):
        classifier = OfflineClassifier(chain_trace)
        counts = classifier.category_counts(
            chain_trace.memory_footprint()
        )
        total = sum(counts.values())
        assert counts[Category.HHF] / total > 0.5

    def test_dense_regions_are_mhf(self):
        from repro.isa import Assembler, Machine
        import random
        asm = Assembler()
        rng = random.Random(8)
        bases = [0x40000 + i * 1024 for i in range(200)]
        rng.shuffle(bases)
        asm.data(0x10000, bases)
        asm.movi("r1", 0x10000)
        asm.movi("r2", 0x10000 + 200 * 8)
        outer = asm.label()
        asm.load("r4", "r1", 0)
        asm.addi("r5", "r4", 1024)
        inner = asm.label()
        asm.load("r6", "r4", 0)
        asm.addi("r4", "r4", 64)
        asm.blt("r4", "r5", inner)
        asm.addi("r1", "r1", 8)
        asm.blt("r1", "r2", outer)
        asm.halt()
        trace = Machine(max_instructions=100_000).run(asm.assemble())
        classifier = OfflineClassifier(trace)
        # The region lines: dense but the sweep load is ~strided within
        # regions.  At minimum they must not be HHF.
        region_lines = {(0x40000 >> 6) + i for i in range(16)}
        categories = {classifier.category(l) for l in region_lines}
        assert Category.HHF not in categories

    def test_strided_pc_detected(self, strided_trace):
        classifier = OfflineClassifier(strided_trace)
        assert classifier.strided_pcs

    def test_columns_classify_as_the_record_loop(self):
        """A compiled trace is classified from its columns, builds no
        record view, and labels every line and PC as the record loop
        did, over the stress suite and four SPEC apps: ``spec.mcf`` (no
        strided PC), ``spec.leslie3d`` (five), and ``spec.soplex`` and
        ``spec.gcc`` (dense regions, so MHF lines beside LHF).  Each SPEC
        trace is read from the trace cache, or built when the cache is
        cold, and dropped after its check."""
        from repro.isa.trace import TraceRecord, compile_trace
        from repro.workloads import get_suite, get_workload
        from repro.workloads.tracecache import TraceCache

        cache = TraceCache()
        spec = [get_workload(name) for name in (
            "spec.mcf", "spec.leslie3d", "spec.soplex", "spec.gcc")]
        for workload in get_suite("stress") + spec:
            if workload.name.startswith("stress."):
                trace = workload.trace()
            else:
                trace = cache.get(workload.name, workload.simpoint) \
                    or compile_trace(workload.object_trace())
            records = (TraceRecord(*row) for row in zip(
                *(column.tolist() for column in trace.array_columns())))
            views = trace._records
            new = OfflineClassifier(trace)
            reference = _RecordLoopClassifier(_Records(records))
            assert trace._records is views, workload.name
            assert new.strided_pcs == reference.strided_pcs, workload.name
            assert new._lhf_lines == reference._lhf_lines, workload.name
            assert new._mhf_lines == reference._mhf_lines, workload.name


class _Records:
    """A stand-in trace that holds only a record stream."""

    def __init__(self, records) -> None:
        self.records = records


class _RecordLoopClassifier(OfflineClassifier):
    """The classifier's build as it was before it read trace columns:
    one pass over ``trace.records``, verbatim."""

    def _build(self, trace) -> None:
        from collections import defaultdict

        from repro.analysis.classify import REGION_LINES

        last_addr: dict[int, int] = {}
        delta_counts: dict[int, Counter] = defaultdict(Counter)
        instances: Counter = Counter()
        lines_by_pc: dict[int, set[int]] = defaultdict(set)
        generations: dict[int, tuple[set[int], int]] = {}
        dense_regions: set[int] = set()
        access_index = 0

        for record in trace.records:
            if not record.is_mem:
                continue
            pc = record.pc
            line = record.addr >> 6
            instances[pc] += 1
            lines_by_pc[pc].add(line)
            access_index += 1
            region = line // REGION_LINES
            if region not in dense_regions:
                generation = generations.get(region)
                if (
                    generation is None
                    or access_index - generation[1] > self.density_window
                ):
                    generation = (set(), access_index)
                lines, _ = generation
                lines.add(line)
                if len(lines) > self.dense_threshold:
                    dense_regions.add(region)
                    generations.pop(region, None)
                else:
                    generations[region] = (lines, access_index)
            previous = last_addr.get(pc)
            if previous is not None:
                delta = record.addr - previous
                if delta != 0:
                    delta_counts[pc][delta] += 1
            last_addr[pc] = record.addr

        for pc, count in instances.items():
            if count < self.min_instances:
                continue
            deltas = delta_counts.get(pc)
            if not deltas:
                continue
            total = sum(deltas.values())
            dominant = deltas.most_common(1)[0][1]
            if total and dominant / total >= self.strided_fraction:
                self.strided_pcs.add(pc)
                self._lhf_lines.update(lines_by_pc[pc])

        for region in dense_regions:
            base = region * REGION_LINES
            for line in range(base, base + REGION_LINES):
                if line not in self._lhf_lines:
                    self._mhf_lines.add(line)


class TestCreditTracker:
    def test_positive_credit(self):
        tracker = CreditTracker()
        tracker.on_prefetch_issued(1, "T2")
        tracker.on_useful(1, "T2", 1)
        bucket = tracker.bucket(component="T2")
        assert bucket.effective_accuracy == pytest.approx(1.0)

    def test_negative_credit_shared(self):
        tracker = CreditTracker()
        tracker.on_prefetch_issued(1, "C1")
        tracker.on_prefetch_issued(2, "C1")
        tracker.on_pollution(1, [(1, "C1"), (2, "C1")])
        bucket = tracker.bucket(component="C1")
        assert bucket.negative == pytest.approx(1.0)
        assert bucket.effective_accuracy == pytest.approx(-0.5)

    def test_level_filtering(self):
        tracker = CreditTracker(level=1)
        tracker.on_prefetch_issued(1, "T2")
        tracker.on_useful(1, "T2", 2)    # L2 usefulness ignored at L1
        assert tracker.bucket().positive == 0.0

    def test_categorized_buckets(self):
        tracker = CreditTracker(categorize=lambda line: "even"
                                if line % 2 == 0 else "odd")
        tracker.on_prefetch_issued(2, "T2")
        tracker.on_prefetch_issued(3, "T2")
        assert tracker.bucket(category="even").issued == 1
        assert tracker.bucket(category="odd").issued == 1
        assert tracker.bucket().issued == 2

    def test_by_component_and_category(self):
        tracker = CreditTracker()
        tracker.on_prefetch_issued(1, "T2")
        tracker.on_prefetch_issued(2, "P1")
        assert set(tracker.by_component()) == {"T2", "P1"}
        assert set(tracker.by_category()) == {"all"}

    def test_integrated_with_simulation(self, strided_trace):
        tracker = CreditTracker()
        simulate(strided_trace, make_prefetcher("t2"), tracker=tracker)
        bucket = tracker.bucket(component="T2")
        assert bucket.issued > 0
        assert bucket.effective_accuracy > 0.8


class TestStorage:
    def test_all_paper_rows_present(self):
        rows = storage_table()
        assert {r.name for r in rows} == set(PAPER_STORAGE_KB)

    def test_modeled_sizes_within_3x_of_paper(self):
        for row in storage_table():
            assert 0.3 < row.ratio < 3.0, row

    def test_tpc_is_component_sum(self):
        rows = {r.name: r.model_kb for r in storage_table()}
        assert rows["tpc"] == pytest.approx(
            rows["t2"] + rows["p1"] + rows["c1"], rel=0.01
        )


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "xyz" in lines[3]

    def test_format_scatter(self):
        out = format_scatter([("app", 0.5, 0.9, 10.0)])
        assert "app" in out

    def test_format_bars(self):
        out = format_bars({"tpc": 1.4, "bop": 1.2})
        assert "tpc" in out and "#" in out

    def test_format_bars_empty(self):
        assert format_bars({}) == "(empty)"
