"""Property-based tests (hypothesis) on core data structures and
invariants."""

from hypothesis import given, settings, strategies as st

from repro.analysis.credit import CreditTracker
from repro.core.loop_detector import LoopDetector
from repro.core.sit import StrideIdentifierTable
from repro.core.taint import TaintUnit
from repro.isa import Assembler, Machine
from repro.isa.instructions import NUM_REGISTERS, OpClass
from repro.isa.trace import TraceRecord
from repro.memory.cache import Cache
from repro.memory.dram import Dram, DramConfig
from repro.memory.shadow import ShadowTagStore

lines = st.integers(min_value=0, max_value=1 << 20)


class TestCacheProperties:
    @given(st.lists(lines, min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = Cache("t", 4 * 2 * 64, 2, 64)
        for i, line in enumerate(addresses):
            cache.fill(line, fill_time=i)
        assert cache.occupancy() <= 8

    @given(st.lists(lines, min_size=1, max_size=200))
    def test_fill_then_probe_true(self, addresses):
        cache = Cache("t", 16 * 4 * 64, 4, 64)
        for i, line in enumerate(addresses):
            cache.fill(line, fill_time=i)
            assert cache.probe(line)

    @given(st.lists(lines, min_size=1, max_size=200))
    def test_lookup_consistent_with_probe(self, addresses):
        cache = Cache("t", 8 * 2 * 64, 2, 64)
        for i, line in enumerate(addresses):
            hit = cache.lookup(line, now=i) is not None
            assert hit == (True if i > 0 and cache.probe(line) else hit)
            cache.fill(line, fill_time=i)

    @given(st.lists(lines, min_size=1, max_size=300))
    def test_eviction_stats_balance(self, addresses):
        cache = Cache("t", 4 * 1 * 64, 1, 64)
        for i, line in enumerate(addresses):
            cache.fill(line, fill_time=i)
        # Every distinct line filled is either still resident or was
        # evicted exactly once per allocation it lost.
        assert cache.stats.evictions + cache.occupancy() >= len(
            set(addresses)
        ) - cache.occupancy() or True
        distinct_allocations = 0
        # Re-derive: allocations happen only when the line is absent.
        replay = Cache("t", 4 * 1 * 64, 1, 64)
        for i, line in enumerate(addresses):
            if not replay.probe(line):
                distinct_allocations += 1
            replay.fill(line, fill_time=i)
        assert (
            cache.stats.evictions + cache.occupancy()
            == distinct_allocations
        )


class TestShadowProperties:
    @given(st.lists(lines, min_size=1, max_size=300))
    def test_repeat_access_hits(self, addresses):
        shadow = ShadowTagStore(8, 4)
        for line in addresses:
            shadow.access(line)
            assert shadow.access(line)  # immediate re-access always hits

    @given(st.lists(lines, min_size=1, max_size=300))
    def test_occupancy_bounded(self, addresses):
        shadow = ShadowTagStore(4, 2)
        for line in addresses:
            shadow.access(line)
        assert shadow.occupancy() <= 8


class TestDramProperties:
    @given(st.lists(lines, min_size=1, max_size=100))
    def test_completion_after_request(self, addresses):
        dram = Dram(DramConfig())
        now = 0
        for line in addresses:
            completion = dram.read(line, now)
            assert completion > now
            now = completion

    @given(st.lists(lines, min_size=1, max_size=100))
    def test_reads_counted(self, addresses):
        dram = Dram(DramConfig())
        for line in addresses:
            dram.read(line, 0)
        assert dram.stats.reads == len(addresses)


class TestSitProperties:
    @given(st.integers(min_value=1, max_value=4096),
           st.integers(min_value=5, max_value=40))
    def test_constant_stride_always_stabilizes(self, stride, count):
        sit = StrideIdentifierTable()
        entry = sit.allocate(0, 0)
        for i in range(1, count):
            sit.observe(0, i * stride)
        assert entry.delta == stride
        assert entry.stable

    @given(st.lists(st.integers(min_value=0, max_value=1 << 30),
                    min_size=2, max_size=50))
    def test_observe_never_crashes_and_counts_consistent(self, addresses):
        sit = StrideIdentifierTable()
        entry = sit.allocate(0, addresses[0])
        for addr in addresses[1:]:
            sit.observe(0, addr)
            assert entry.same_count >= 1 or entry.diff_count >= 1

    @given(st.lists(st.tuples(st.integers(0, 100), lines),
                    min_size=1, max_size=200))
    def test_table_bounded(self, pairs):
        sit = StrideIdentifierTable(entries=8)
        for mpc, addr in pairs:
            sit.allocate(mpc, addr)
        assert len(sit) <= 8


class TestTaintProperties:
    @given(st.lists(st.tuples(
        st.integers(0, NUM_REGISTERS - 1),
        st.integers(-1, NUM_REGISTERS - 1),
        st.integers(-1, NUM_REGISTERS - 1),
    ), max_size=100))
    def test_vector_stays_in_register_range(self, instructions):
        unit = TaintUnit()
        unit.arm(0x10)
        unit.observe(TraceRecord(0x10, OpClass.LOAD, dst=1, src1=2))
        for dst, src1, src2 in instructions:
            unit.observe(TraceRecord(0x20, OpClass.ALU, dst=dst, src1=src1,
                                     src2=src2))
        assert unit._vector < (1 << NUM_REGISTERS)

    @given(st.integers(0, NUM_REGISTERS - 1))
    def test_trigger_dst_always_tainted_after_start(self, dst):
        unit = TaintUnit()
        unit.arm(0x10)
        unit.observe(TraceRecord(0x10, OpClass.LOAD, dst=dst, src1=0))
        assert unit.is_tainted(dst)


class TestLoopDetectorProperties:
    @given(st.lists(st.tuples(st.integers(100, 110), st.booleans()),
                    max_size=200))
    def test_never_crashes(self, branches):
        detector = LoopDetector()
        cycle = 0
        for pc, same_target in branches:
            detector.observe_backward_branch(
                pc, 50 if same_target else 60, cycle
            )
            cycle += 7

    @given(st.integers(2, 100))
    def test_iterations_counted(self, count):
        detector = LoopDetector()
        for i in range(count):
            detector.observe_backward_branch(0x100, 0x80, i * 10)
        assert detector.iterations == count - 1


class TestCreditProperties:
    @given(st.lists(st.tuples(lines, st.sampled_from(["T2", "P1", "C1"])),
                    max_size=100))
    def test_issued_equals_sum_of_buckets(self, issues):
        tracker = CreditTracker()
        for line, component in issues:
            tracker.on_prefetch_issued(line, component)
        assert tracker.bucket().issued == len(issues)

    @given(st.lists(lines, min_size=1, max_size=50))
    def test_accuracy_bounded_by_one(self, used_lines):
        tracker = CreditTracker()
        for line in used_lines:
            tracker.on_prefetch_issued(line, "T2")
            tracker.on_useful(line, "T2", 1)
        assert tracker.bucket().effective_accuracy <= 1.0


class TestMachineProperties:
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=30))
    def test_sum_program_matches_python(self, values):
        asm = Assembler()
        asm.data(0x1000, values)
        asm.movi("r1", 0x1000)
        asm.movi("r2", 0x1000 + len(values) * 8)
        asm.movi("r3", 0)
        loop = asm.label()
        asm.load("r4", "r1", 0)
        asm.add("r3", "r3", "r4")
        asm.addi("r1", "r1", 8)
        asm.blt("r1", "r2", loop)
        asm.store("r3", "r0", 0x8000)
        asm.halt()
        trace = Machine().run(asm.assemble())
        assert trace.memory[0x8000] == sum(values)

    @settings(max_examples=25)
    @given(st.integers(1, 30), st.integers(1, 64))
    def test_trace_length_deterministic(self, n, stride):
        def build():
            asm = Assembler()
            asm.movi("r1", 0)
            asm.movi("r2", n)
            loop = asm.label()
            asm.load("r4", "r1", 0x1000)
            asm.addi("r1", "r1", stride)
            asm.blt("r1", "r2", loop)
            asm.halt()
            return asm.assemble()

        a = Machine().run(build())
        b = Machine().run(build())
        assert len(a) == len(b)
        assert [r.pc for r in a.records] == [r.pc for r in b.records]
