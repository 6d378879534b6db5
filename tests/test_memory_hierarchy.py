"""Integration tests for the cache hierarchy."""

import pytest

from repro.engine.config import SystemConfig
from repro.memory.hierarchy import Hierarchy


@pytest.fixture
def hierarchy():
    return Hierarchy(SystemConfig())


class TestDemandPath:
    def test_cold_miss_goes_to_dram(self, hierarchy):
        result = hierarchy.demand_access(0x1000, now=0)
        assert not result.l1_hit
        assert result.primary_miss
        assert result.hit_level == 4
        assert result.ready_time > 80  # L1+L2+L3 tags + DRAM access

    def test_second_access_hits_l1(self, hierarchy):
        first = hierarchy.demand_access(0x1000, now=0)
        second = hierarchy.demand_access(0x1000, now=first.ready_time + 1)
        assert second.l1_hit
        assert second.hit_level == 1
        l1_latency = hierarchy.l1d.hit_latency
        assert second.ready_time == first.ready_time + 1 + l1_latency

    def test_same_line_different_word_hits(self, hierarchy):
        first = hierarchy.demand_access(0x1000, now=0)
        second = hierarchy.demand_access(0x1008, now=first.ready_time + 1)
        assert second.l1_hit

    def test_secondary_miss_merges(self, hierarchy):
        first = hierarchy.demand_access(0x1000, now=0)
        # Access the same line while the fill is still in flight.
        second = hierarchy.demand_access(0x1000, now=1)
        assert second.l1_hit  # merged, not a new primary miss
        assert second.ready_time >= first.ready_time
        assert hierarchy.l1d.stats.mshr_merges == 1
        assert hierarchy.l1d.stats.demand_misses == 1
        assert hierarchy.dram.stats.reads == 1

    def test_l2_hit_after_l1_eviction(self):
        # Tiny L1 so we can evict deterministically.
        from dataclasses import replace
        config = SystemConfig()
        config = replace(config, l1d=replace(config.l1d, size_bytes=4 * 64,
                                             ways=4))
        hierarchy = Hierarchy(config)
        t = 0
        result = hierarchy.demand_access(0, now=t)
        t = result.ready_time
        # Fill the single set until line 0 is evicted from L1 (ways=4, 1 set
        # ... actually 1 set only if sets=1: 4*64/(4*64)=1 set).
        for i in range(1, 5):
            result = hierarchy.demand_access(i * 64, now=t)
            t = result.ready_time
        assert not hierarchy.l1d.probe(0)
        result = hierarchy.demand_access(0, now=t)
        assert result.hit_level == 2

    def test_miss_footprint_recorded(self, hierarchy):
        hierarchy.demand_access(0x1000, now=0)
        hierarchy.demand_access(0x1000, now=10_000)  # hit, not recorded
        hierarchy.demand_access(0x2000, now=20_000)
        assert hierarchy.miss_lines_l1[0x1000 >> 6] == 1
        assert hierarchy.miss_lines_l1[0x2000 >> 6] == 1

    def test_latency_ordering(self, hierarchy):
        """L1 hit < L2 hit < L3 hit < DRAM."""
        dram_result = hierarchy.demand_access(0x1000, now=0)
        t = dram_result.ready_time + 1
        l1_result = hierarchy.demand_access(0x1000, now=t)
        l1_latency = l1_result.ready_time - t
        dram_latency = dram_result.ready_time
        assert l1_latency < dram_latency


class TestWritebacks:
    def test_dirty_line_written_back_through_hierarchy(self):
        from dataclasses import replace
        config = SystemConfig()
        config = replace(
            config,
            l1d=replace(config.l1d, size_bytes=64, ways=1),
            l2=replace(config.l2, size_bytes=64, ways=1),
            l3=replace(config.l3, size_bytes=64, ways=1),
        )
        hierarchy = Hierarchy(config)
        t = hierarchy.demand_access(0, now=0, is_write=True).ready_time
        # Conflict the dirty line out of L1, then L2, then L3.
        t = hierarchy.demand_access(64 * 1024, now=t).ready_time
        t = hierarchy.demand_access(128 * 1024, now=t).ready_time
        t = hierarchy.demand_access(192 * 1024, now=t).ready_time
        assert hierarchy.dram.stats.writes >= 1


class TestPrefetchPath:
    def test_prefetch_fills_target_level(self, hierarchy):
        assert hierarchy.prefetch(100, now=0, target_level=1, component="T2")
        assert hierarchy.l1d.probe(100)
        assert hierarchy.l2.probe(100)
        assert hierarchy.prefetch_stats.issued == 1
        assert hierarchy.prefetch_stats.by_component["T2"] == 1

    def test_prefetch_to_l2_does_not_fill_l1(self, hierarchy):
        hierarchy.prefetch(100, now=0, target_level=2, component="C1")
        assert not hierarchy.l1d.probe(100)
        assert hierarchy.l2.probe(100)

    def test_duplicate_prefetch_filtered(self, hierarchy):
        hierarchy.prefetch(100, now=0, target_level=1)
        hierarchy.prefetch(100, now=1, target_level=1)
        assert hierarchy.prefetch_stats.issued == 1
        assert hierarchy.prefetch_stats.filtered == 1

    def test_prefetch_of_resident_line_filtered(self, hierarchy):
        result = hierarchy.demand_access(0x4000, now=0)
        hierarchy.prefetch(0x4000 >> 6, now=result.ready_time, target_level=1)
        assert hierarchy.prefetch_stats.filtered == 1

    def test_attempted_footprint_includes_filtered(self, hierarchy):
        hierarchy.prefetch(100, now=0)
        hierarchy.prefetch(100, now=1)
        assert hierarchy.attempted_prefetch_lines == {100}

    def test_useful_prefetch_counted_on_demand_hit(self, hierarchy):
        hierarchy.prefetch(0x4000 >> 6, now=0, target_level=1,
                           component="T2")
        result = hierarchy.demand_access(0x4000, now=10_000)
        assert result.l1_hit
        assert result.served_by_prefetch
        assert result.prefetch_component == "T2"
        assert hierarchy.l1d.stats.useful_prefetches == 1

    def test_late_prefetch_still_hits_but_waits(self, hierarchy):
        hierarchy.prefetch(0x4000 >> 6, now=0, target_level=1)
        result = hierarchy.demand_access(0x4000, now=5)
        assert result.l1_hit
        assert result.served_by_prefetch
        assert result.ready_time > 5 + hierarchy.l1d.hit_latency
        assert hierarchy.l1d.stats.late_prefetch_hits == 1

    def test_prefetch_from_l2_is_fast(self, hierarchy):
        # Demand brings the line into L2+L3; evict from L1 is not needed —
        # prefetch of an L1-absent, L2-present line should not touch DRAM.
        result = hierarchy.demand_access(0x8000, now=0)
        hierarchy.l1d.invalidate(0x8000 >> 6)
        reads_before = hierarchy.dram.stats.reads
        hierarchy.prefetch(0x8000 >> 6, now=result.ready_time, target_level=1)
        assert hierarchy.dram.stats.reads == reads_before

    def test_invalid_target_level_rejected(self, hierarchy):
        with pytest.raises(ValueError):
            hierarchy.prefetch(1, now=0, target_level=3)


class TestPollutionDetection:
    def test_prefetch_induced_miss_detected(self):
        from dataclasses import replace
        config = SystemConfig()
        config = replace(config, l1d=replace(config.l1d, size_bytes=64,
                                             ways=1))
        hierarchy = Hierarchy(config)
        t = hierarchy.demand_access(0, now=0).ready_time
        # A prefetch displaces line 0 from the one-line L1.
        hierarchy.prefetch(4096, now=t, target_level=1, component="C1")
        # Re-access line 0: real miss, shadow hit => pollution.
        hierarchy.demand_access(0, now=t + 1)
        assert hierarchy.pollution_misses_l1 == 1

    def test_no_pollution_without_prefetch(self, hierarchy):
        hierarchy.demand_access(0, now=0)
        hierarchy.demand_access(64, now=1000)
        assert hierarchy.pollution_misses_l1 == 0


class TestTrackerHooks:
    def test_hooks_fire(self, hierarchy):
        hierarchy.prefetch(10, now=0, target_level=1, component="P1")
        hierarchy.demand_access(10 << 6, now=10_000)
        assert hierarchy.credit_log == [("on_prefetch_issued", 10, "P1"),
                                        ("on_useful", 10, "P1", 1)]
