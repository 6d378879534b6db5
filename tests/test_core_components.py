"""Unit/behavioral tests for the T2, P1, and C1 components."""

from conftest import feed_stream, make_event

from repro.core.c1 import C1Prefetcher
from repro.core.p1 import P1Prefetcher
from repro.core.sit import InstructionState
from repro.core.t2 import T2Prefetcher
from repro.engine.system import simulate
from repro.prefetcher_registry import make_prefetcher


class TestT2Unit:
    def test_activation_requires_primary_miss(self):
        t2 = T2Prefetcher()
        event = make_event(pc=0x10, addr=0, hit=True, primary_miss=False)
        t2.on_access(event)
        assert 0x10 not in t2.sit.states  # UNKNOWN
        miss = make_event(pc=0x10, addr=64, hit=False)
        t2.on_access(miss)
        assert t2.sit.states[0x10] is InstructionState.OBSERVATION

    def test_strided_after_sixteen_deltas(self):
        t2 = T2Prefetcher()
        feed_stream(t2, [i * 8 for i in range(20)], pc=0x10)
        assert t2.sit.states[0x10] is InstructionState.STRIDED
        assert t2.claims(0x10)

    def test_non_strided_after_changing_deltas(self):
        import random
        rng = random.Random(9)
        t2 = T2Prefetcher()
        feed_stream(t2, [rng.randrange(1 << 20) * 8 for _ in range(10)],
                    pc=0x10)
        assert t2.sit.states[0x10] is InstructionState.NON_STRIDED
        assert not t2.claims(0x10)

    def test_early_issue_in_observation(self):
        t2 = T2Prefetcher()
        # After 4 stable deltas (< 16), prefetching already starts.
        requests = feed_stream(t2, [i * 64 for i in range(8)], pc=0x10)
        assert requests

    def test_mpc_distinguishes_call_sites(self):
        t2 = T2Prefetcher()
        # Same PC, different RAS tops -> different SIT entries.
        for i in range(6):
            t2.on_access(make_event(pc=0x10, mpc=0x10 ^ 0xAAA,
                                    addr=i * 8, hit=False))
            t2.on_access(make_event(pc=0x10, mpc=0x10 ^ 0xBBB,
                                    addr=0x100000 + i * 16, hit=False))
        entry_a = t2.sit._table.get(0x10 ^ 0xAAA)
        entry_b = t2.sit._table.get(0x10 ^ 0xBBB)
        assert entry_a is not None and entry_b is not None
        assert entry_a.delta == 8 and entry_b.delta == 16

    def test_boosted_pcs_double_distance(self):
        # d = int((AMAT + m) / T_iter) + 1 = int((100 + 32) / 10) + 1.
        t2 = T2Prefetcher()
        t2.loops._iteration_time_fast = 10.0
        t2.loops.loop_pc = 0x99
        t2._amat = 100.0
        assert t2.loops.iteration_time == 10.0
        assert t2.prefetch_distance(0x10) == 14
        t2.boosted_pcs.add(0x10)
        assert t2.prefetch_distance(0x10) == 28

    def test_distance_capped_by_proven_length(self):
        # int((300 + 32) / 1) + 1 = 333, clamped to max_distance (128).
        t2 = T2Prefetcher()
        t2.loops._iteration_time_fast = 1.0
        t2.loops.loop_pc = 0x99
        t2._amat = 300.0
        assert t2.prefetch_distance(0x10) == 128
        assert t2.prefetch_distance(0x10, proven_length=5) == 5

    def test_storage_close_to_table2(self):
        kb = T2Prefetcher().storage_bits / 8 / 1024
        assert 1.5 < kb < 3.5  # paper: 2.3 KB


class TestT2EndToEnd:
    def test_covers_strided_stream(self, strided_trace):
        base = simulate(strided_trace)
        result = simulate(strided_trace, T2Prefetcher())
        assert result.l1d.demand_misses < base.l1d.demand_misses / 10
        assert result.cycles < base.cycles

    def test_high_accuracy_on_strided(self, strided_trace):
        base = simulate(strided_trace)
        result = simulate(strided_trace, T2Prefetcher())
        issued = result.prefetch.issued
        useful = result.l1d.useful_prefetches
        assert issued > 0
        assert useful / issued > 0.9


class TestP1Unit:
    def test_aop_detection_via_events(self):
        # Trigger load at 0x10 (strided values), dependent at 0x14.
        p1 = P1Prefetcher()
        memory = {}
        objects = [0x50000 + 4096 * i for i in range(64)]
        for i, obj in enumerate(objects):
            memory[0x1000 + 8 * i] = obj
        p1.set_memory(memory)
        from repro.isa.instructions import OpClass
        from repro.isa.trace import TraceRecord
        for i in range(40):
            addr_i = 0x1000 + 8 * i
            value_i = objects[i]
            trigger = make_event(pc=0x10, addr=addr_i, value=value_i,
                                 hit=False, dst=4)
            p1.observe_instruction(
                TraceRecord(0x10, OpClass.LOAD, addr=addr_i, value=value_i,
                            dst=4, src1=1), i * 10)
            p1.on_access(trigger)
            dep_addr = value_i + 16
            dependent = make_event(pc=0x14, addr=dep_addr, hit=False, dst=5)
            p1.observe_instruction(
                TraceRecord(0x14, OpClass.LOAD, addr=dep_addr, dst=5,
                            src1=4), i * 10 + 1)
            p1.on_access(dependent)
        assert 0x10 in p1._aop_pairs
        assert p1.claims(0x14)
        assert 0x10 in p1.pointer_trigger_pcs

    def test_chain_detected_end_to_end(self, chain_trace):
        result = simulate(chain_trace, P1Prefetcher())
        p1_issued = result.prefetch.by_component.get("P1", 0)
        assert p1_issued > 0

    def test_chain_accuracy_is_high(self, chain_trace):
        result = simulate(chain_trace, P1Prefetcher())
        issued = result.prefetch.issued
        useful = result.l1d.useful_prefetches
        assert issued > 0
        assert useful / issued > 0.8

    def test_aop_end_to_end_reduces_misses(self, aop_trace):
        base = simulate(aop_trace)
        result = simulate(aop_trace, P1Prefetcher())
        assert result.l1d.demand_misses < base.l1d.demand_misses

    def test_storage_close_to_table2(self):
        kb = P1Prefetcher().storage_bits / 8 / 1024
        assert 0.8 < kb < 1.6  # paper: 1.07 KB


class TestC1Unit:
    def test_dense_instruction_marked(self):
        c1 = C1Prefetcher()
        # One PC missing all over dense regions.
        for region in range(6):
            base = region * 1024 + 0x40000
            for line in range(10):   # 10 of 16 lines: dense
                event = make_event(pc=0x30, addr=base + line * 64, hit=False)
                c1.observe_access(event)
                c1.on_access(event)
        # Force RM evictions by touching many other regions.
        for region in range(40):
            event = make_event(pc=0x99, addr=0x900000 + region * 1024,
                               hit=True, primary_miss=False)
            c1.observe_access(event)
            c1.on_access(event)
        assert c1.claims(0x30)

    def test_sparse_instruction_rejected(self):
        c1 = C1Prefetcher()
        for region in range(8):
            base = region * 1024 + 0x40000
            event = make_event(pc=0x30, addr=base, hit=False)  # 1 line only
            c1.observe_access(event)
            c1.on_access(event)
        for region in range(40):
            event = make_event(pc=0x99, addr=0x900000 + region * 1024,
                               hit=True, primary_miss=False)
            c1.observe_access(event)
            c1.on_access(event)
        assert not c1.claims(0x30)
        assert 0x30 in c1._decided_sparse

    def test_dense_pc_triggers_region_prefetch(self):
        c1 = C1Prefetcher()
        c1._decided_dense.add(0x30)
        event = make_event(pc=0x30, addr=0x80000, hit=False)
        c1.observe_access(event)
        requests = c1.on_access(event)
        assert requests is not None
        assert len(requests) == 15  # whole region minus the accessed line
        assert all(r.target_level == 2 for r in requests)
        assert all(r.component == "C1" for r in requests)

    def test_region_prefetched_once(self):
        c1 = C1Prefetcher()
        c1._decided_dense.add(0x30)
        for _ in range(3):
            event = make_event(pc=0x30, addr=0x80000, hit=False)
            c1.observe_access(event)
            requests = c1.on_access(event)
        assert requests is None  # deduped by the recent-regions window

    def test_im_capacity_respected(self):
        c1 = C1Prefetcher(im_entries=2)
        for pc in range(10):
            event = make_event(pc=pc, addr=pc * 4096, hit=False)
            c1.observe_access(event)
            c1.on_access(event)
        monitored = [e for e in c1._im if e is not None]
        assert len(monitored) <= 2

    def test_storage_close_to_table2(self):
        kb = C1Prefetcher().storage_bits / 8 / 1024
        assert 0.8 < kb < 1.8  # paper: 1.2 KB


class TestComponentTargets:
    def test_t2_and_p1_target_l1_c1_targets_l2(self):
        tpc = make_prefetcher("tpc")
        t2, p1, c1 = tpc.components
        assert t2.target_level == 1
        assert p1.target_level == 1
        assert c1.target_level == 2
