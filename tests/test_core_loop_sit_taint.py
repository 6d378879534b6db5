"""Unit tests for T2's loop detector, the SIT, and P1's taint unit."""

from repro.core.loop_detector import LoopDetector
from repro.core.sit import (
    EARLY_ISSUE_THRESHOLD,
    InstructionState,
    StrideIdentifierTable,
)
from repro.core.taint import TaintUnit
from repro.isa.instructions import OpClass
from repro.isa.trace import TraceRecord


def alu(pc, dst, src1=-1, src2=-1):
    return TraceRecord(pc, OpClass.ALU, dst=dst, src1=src1, src2=src2)


def load(pc, dst, base):
    return TraceRecord(pc, OpClass.LOAD, addr=0x1000, dst=dst, src1=base)


class TestLoopDetector:
    def test_identifies_back_to_back_loop_branch(self):
        detector = LoopDetector()
        assert not detector.observe_backward_branch(0x100, 0x80, cycle=0)
        assert detector.observe_backward_branch(0x100, 0x80, cycle=10)
        assert detector.in_loop
        assert detector.loop_pc == 0x100

    def test_iteration_time_tracked(self):
        detector = LoopDetector()
        for i in range(10):
            detector.observe_backward_branch(0x100, 0x80, cycle=i * 20)
        assert abs(detector.iteration_time - 20.0) < 1.0

    def test_non_loop_branch_learned_and_skipped(self):
        detector = LoopDetector(nlpct_strike_limit=2)
        # Branch A never repeats back-to-back: A B A B A B ...
        for i in range(8):
            detector.observe_backward_branch(0xA, 0x1, cycle=2 * i)
            detector.observe_backward_branch(0xB, 0x2, cycle=2 * i + 1)
        assert detector.is_non_loop(0xA) or detector.is_non_loop(0xB)

    def test_nested_loops_inner_wins(self):
        detector = LoopDetector()
        # Inner loop 4 iterations, outer repeats; outer branch should end
        # up in the NLPCT, letting the inner re-confirm immediately.
        cycle = 0
        for _ in range(6):
            for _ in range(4):
                detector.observe_backward_branch(0x100, 0x80, cycle)
                cycle += 5
            detector.observe_backward_branch(0x200, 0x40, cycle)
            cycle += 5
        assert detector.is_non_loop(0x200)
        assert detector.loop_pc == 0x100

    def test_nlpct_bounded(self):
        detector = LoopDetector(nlpct_entries=2, nlpct_strike_limit=1)
        for pc in range(10):
            detector.observe_backward_branch(pc, 0, cycle=pc)
            detector.observe_backward_branch(100 + pc, 0, cycle=pc)
        assert len(detector._nlpct) <= 2

    def test_reset(self):
        detector = LoopDetector()
        detector.observe_backward_branch(0x100, 0x80, 0)
        detector.observe_backward_branch(0x100, 0x80, 5)
        detector.reset()
        assert not detector.in_loop
        assert detector.iterations == 0


class TestSitEntry:
    """Stride tracking of one entry, updated through
    ``StrideIdentifierTable.observe``."""

    def test_stable_after_threshold(self):
        sit = StrideIdentifierTable()
        entry = sit.allocate(0x10, 0)
        for i in range(1, EARLY_ISSUE_THRESHOLD + 1):
            sit.observe(0x10, i * 8)
        assert entry.stable
        assert entry.delta == 8

    def test_delta_change_resets_same_count(self):
        sit = StrideIdentifierTable()
        entry = sit.allocate(0x10, 0)
        for i in range(1, 6):
            sit.observe(0x10, i * 8)
        sit.observe(0x10, 1000)
        assert entry.same_count == 1
        assert entry.diff_count == 1

    def test_run_length_learned_on_break(self):
        sit = StrideIdentifierTable()
        entry = sit.allocate(0x10, 0)
        addr = 0
        for i in range(1, 11):
            addr = i * 8
            sit.observe(0x10, addr)
        sit.observe(0x10, 100000)  # break after a 10-long run
        assert entry.run_estimate >= 9

    def test_zero_delta_not_stable(self):
        sit = StrideIdentifierTable()
        entry = sit.allocate(0x10, 0x50)
        for _ in range(10):
            sit.observe(0x10, 0x50)
        assert not entry.stable


class TestStrideIdentifierTable:
    def test_state_defaults_to_unknown(self):
        # An entry stores no state bits: its PC stays UNKNOWN until T2
        # labels it, and a reset forgets every label.
        sit = StrideIdentifierTable()
        sit.allocate(0x99, 0)
        assert 0x99 not in sit.states
        sit.states[0x99] = InstructionState.OBSERVATION
        sit.reset()
        assert not sit.states and len(sit) == 0

    def test_state_transitions_persist(self):
        # The state bits outlive the PC's SIT entry.
        sit = StrideIdentifierTable(entries=1)
        sit.states[0x10] = InstructionState.STRIDED
        sit.allocate(0x10, 0)
        sit.allocate(0x20, 0)  # evicts 0x10's entry
        sit.drop(0x20)
        assert sit.states[0x10] is InstructionState.STRIDED

    def test_capacity_lru(self):
        sit = StrideIdentifierTable(entries=2)
        sit.allocate(1, 0)
        sit.allocate(2, 0)
        sit.observe(1, 8)     # touch 1; 2 is LRU
        sit.allocate(3, 0)
        assert sit.observe(2, 0) is None
        assert sit.observe(1, 16) is not None

    def test_allocate_idempotent(self):
        sit = StrideIdentifierTable()
        a = sit.allocate(1, 100)
        b = sit.allocate(1, 999)
        assert a is b
        assert a.last_addr == 100  # not clobbered

    def test_drop(self):
        sit = StrideIdentifierTable()
        sit.allocate(1, 0)
        sit.drop(1)
        assert sit.observe(1, 0) is None and len(sit) == 0
        sit.drop(1)  # idempotent


class TestTaintUnit:
    def test_direct_dependent_load_found(self):
        unit = TaintUnit()
        unit.arm(0x10)
        # trigger: load r4 <- ...; dependent: load r5 <- [r4]
        assert not unit.observe(load(0x10, dst=4, base=1))
        assert not unit.observe(load(0x14, dst=5, base=4))
        assert unit.observe(load(0x10, dst=4, base=1))  # walk complete
        assert unit.completed_loads == [0x14]

    def test_transitive_dependence(self):
        unit = TaintUnit()
        unit.arm(0x10)
        unit.observe(load(0x10, dst=4, base=1))
        unit.observe(alu(0x14, dst=6, src1=4))       # r6 <- f(r4)
        unit.observe(load(0x18, dst=5, base=6))      # load [r6]
        assert unit.observe(load(0x10, dst=4, base=1))
        assert unit.completed_loads == [0x18]

    def test_taint_cleared_by_overwrite(self):
        unit = TaintUnit()
        unit.arm(0x10)
        unit.observe(load(0x10, dst=4, base=1))
        unit.observe(alu(0x14, dst=4, src1=2))       # r4 overwritten clean
        unit.observe(load(0x18, dst=5, base=4))      # not tainted anymore
        assert unit.observe(load(0x10, dst=4, base=1))
        assert unit.completed_loads == []

    def test_self_dependence_detected(self):
        unit = TaintUnit()
        unit.arm(0x10)
        unit.observe(load(0x10, dst=1, base=1))      # r1 <- M[r1]
        unit.observe(load(0x10, dst=1, base=1))
        assert unit.trigger_self_dependent

    def test_no_self_dependence_for_plain_stride(self):
        unit = TaintUnit()
        unit.arm(0x10)
        unit.observe(load(0x10, dst=4, base=1))
        unit.observe(alu(0x14, dst=1, src1=1))       # r1 += const (clean:
        # src r1 is not tainted, so dst r1 stays clean)
        unit.observe(load(0x10, dst=4, base=1))
        assert not unit.trigger_self_dependent

    def test_untainted_load_ignored(self):
        unit = TaintUnit()
        unit.arm(0x10)
        unit.observe(load(0x10, dst=4, base=1))
        unit.observe(load(0x20, dst=5, base=2))      # independent load
        assert unit.observe(load(0x10, dst=4, base=1))
        assert unit.completed_loads == []

    def test_unarmed_unit_inert(self):
        unit = TaintUnit()
        assert not unit.observe(load(0x10, dst=4, base=1))
