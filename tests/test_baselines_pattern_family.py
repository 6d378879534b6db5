"""Unit tests for SPP, VLDP, BOP, FDP, SMS, and AMPM."""

import pytest
from conftest import feed_stream, make_event, requested_lines

from repro.baselines.ampm import AmpmPrefetcher
from repro.baselines.bop import BopPrefetcher
from repro.baselines.fdp import FdpPrefetcher
from repro.baselines.sms import SmsPrefetcher
from repro.baselines.spp import SppPrefetcher
from repro.baselines.vldp import VldpPrefetcher


class TestSpp:
    def test_learns_unit_delta_within_page(self):
        pf = SppPrefetcher()
        # Train one page, then start a second page with the same pattern.
        requests = feed_stream(pf, [i * 64 for i in range(30)])
        requests += feed_stream(pf, [0x10000 + i * 64 for i in range(10)])
        assert requests

    def test_stops_at_page_boundary(self):
        pf = SppPrefetcher()
        requests = feed_stream(pf, [i * 64 for i in range(80)])
        for r in requests:
            # All prefetches land inside some 4 KB page of the stream.
            assert r.line < 4096

    def test_filter_suppresses_duplicates(self):
        pf = SppPrefetcher()
        requests = feed_stream(pf, [i * 64 for i in range(40)])
        lines = [r.line for r in requests]
        assert len(lines) == len(set(lines))

    def test_signature_tables_bounded(self):
        pf = SppPrefetcher(signature_entries=4, pattern_entries=8)
        import random
        rng = random.Random(1)
        feed_stream(pf, [rng.randrange(1 << 18) * 64 for _ in range(200)])
        assert len(pf._signatures) <= 4
        assert len(pf._patterns) <= 8

    def test_reset(self):
        pf = SppPrefetcher()
        feed_stream(pf, [i * 64 for i in range(40)])
        pf.reset()
        assert not pf._signatures and not pf._patterns


class TestVldp:
    def test_learns_repeating_delta(self):
        pf = VldpPrefetcher()
        requests = feed_stream(pf, [i * 64 for i in range(20)])
        assert requests

    def test_multi_delta_pattern(self):
        # Repeating +1,+2 line pattern inside a page.
        pf = VldpPrefetcher()
        addrs = [0]
        for i in range(18):
            addrs.append(addrs[-1] + (64 if i % 2 == 0 else 128))
        requests = feed_stream(pf, addrs)
        assert requests

    def test_opt_first_touch_prediction(self):
        pf = VldpPrefetcher()
        # Several pages starting at offset 0 then moving +1 line teach
        # the OPT that offset 0 -> delta 1.
        for page in range(6):
            base = page * 0x1000
            feed_stream(pf, [base, base + 64, base + 128])
        requests = pf.on_access(make_event(addr=0x100000, hit=False))
        assert requests and requests[0].line == (0x100000 >> 6) + 1

    def test_tables_bounded(self):
        pf = VldpPrefetcher(dhb_entries=4)
        feed_stream(pf, [page * 0x1000 for page in range(50)])
        assert len(pf._dhb._data) <= 4


class TestBop:
    def test_learns_best_offset(self):
        pf = BopPrefetcher()
        # Stride of 2 lines; completed prefetches train the RR table.
        # The learning round needs ~840 triggers to saturate a score.
        addrs = [i * 128 for i in range(2000)]
        for addr in addrs:
            event = make_event(addr=addr, hit=False)
            requests = pf.on_access(event)
            for r in requests or []:
                pf.on_fill(r.line, 1, prefetched=True)
        assert pf._best_offset % 2 == 0  # multiple of the 2-line stride

    def test_turns_off_on_random(self):
        import random
        rng = random.Random(3)
        pf = BopPrefetcher()
        for _ in range(3000):
            addr = rng.randrange(1 << 22) * 64
            event = make_event(addr=addr, hit=False)
            requests = pf.on_access(event)
            for r in requests or []:
                pf.on_fill(r.line, 1, prefetched=True)
        assert not pf._prefetching_on

    def test_prefetch_on_prefetched_hit(self):
        pf = BopPrefetcher()
        event = make_event(addr=0x2000, hit=True, served_by_prefetch=True)
        assert pf.on_access(event) is not None

    def test_no_trigger_on_plain_hit(self):
        pf = BopPrefetcher()
        assert pf.on_access(make_event(addr=0x2000, hit=True)) is None

    def test_rr_table_bounded(self):
        pf = BopPrefetcher(rr_entries=8)
        for i in range(100):
            pf.on_fill(i, 1, prefetched=True)
        assert len(pf._rr) <= 8


class TestFdp:
    def test_stream_training_and_prefetch(self):
        pf = FdpPrefetcher()
        requests = feed_stream(pf, [i * 64 for i in range(20)])
        assert requests
        distance, degree = pf.aggressiveness
        assert distance >= 4 and degree >= 1

    def test_aggressiveness_drops_on_poor_accuracy(self):
        pf = FdpPrefetcher(start_aggressiveness=3)
        level_before = pf._level
        # Issue many prefetches, never report a hit, cross the interval.
        feed_stream(pf, [i * 64 for i in range(3000)])
        assert pf._level <= level_before

    def test_aggressiveness_rises_on_good_accuracy(self):
        pf = FdpPrefetcher(start_aggressiveness=0)
        for i in range(3000):
            event = make_event(addr=i * 64, hit=False)
            requests = pf.on_access(event)
            for r in requests or []:
                pf.on_prefetch_hit(r.line, 1)
        assert pf._level > 0

    def test_downward_stream(self):
        pf = FdpPrefetcher()
        requests = feed_stream(pf, [0x100000 - i * 64 for i in range(20)])
        assert requests
        assert all(r.line <= 0x100000 >> 6 for r in requests)

    def test_stream_table_bounded(self):
        pf = FdpPrefetcher(streams=4)
        for i in range(20):
            feed_stream(pf, [i * 0x100000], pc=i)
        assert len(pf._streams) <= 4


class TestSms:
    def test_pattern_recorded_and_replayed(self):
        pf = SmsPrefetcher(active_entries=2)
        # Touch regions with a fixed 3-line pattern from the same PC and
        # trigger offset; regions must be touched twice to open a
        # generation (filter table).
        pattern_offsets = [0, 3, 7]
        for region in range(8):
            base = region * 2048
            for offset in pattern_offsets:
                for _ in range(2):
                    pf.on_access(make_event(pc=0x40, addr=base + offset * 64,
                                            hit=False))
        # A new region triggered by the same (pc, offset) key replays.
        requests = pf.on_access(make_event(pc=0x40, addr=0x100000,
                                           hit=False))
        if requests:  # pattern learned
            lines = requested_lines(requests)
            base_line = 0x100000 >> 6
            assert base_line + 3 in lines or base_line + 7 in lines

    def test_single_line_generations_not_stored(self):
        pf = SmsPrefetcher(active_entries=1)
        for region in range(10):
            pf.on_access(make_event(pc=0x40, addr=region * 4096, hit=False))
            pf.on_access(make_event(pc=0x40, addr=region * 4096, hit=False))
        assert not pf._pht

    def test_filter_requires_second_touch(self):
        pf = SmsPrefetcher()
        pf.on_access(make_event(pc=0x40, addr=0, hit=False))
        assert not pf._active
        pf.on_access(make_event(pc=0x40, addr=64, hit=False))
        assert pf._active


class TestAmpm:
    def test_stride_pattern_match(self):
        pf = AmpmPrefetcher(degree=2)
        requests = feed_stream(pf, [i * 64 for i in range(8)])
        assert requests
        # t-1 and t-2 accessed => t+1 predicted.
        assert all(r.line <= 16 for r in requests)

    def test_stride_2_pattern(self):
        pf = AmpmPrefetcher()
        requests = feed_stream(pf, [i * 128 for i in range(8)])
        lines = requested_lines(requests)
        assert lines
        assert all(line % 2 == 0 for line in lines)

    def test_no_duplicate_prefetches_per_zone(self):
        pf = AmpmPrefetcher()
        requests = feed_stream(pf, [i * 64 for i in range(30)])
        lines = [r.line for r in requests]
        assert len(lines) == len(set(lines))

    def test_maps_bounded(self):
        pf = AmpmPrefetcher(maps=4)
        feed_stream(pf, [i * 4096 for i in range(40)])
        assert len(pf._zones) <= 4

    def test_cross_zone_check(self):
        # Accesses near a zone boundary should not crash and may use the
        # neighbor zone's map.
        pf = AmpmPrefetcher()
        feed_stream(pf, [4096 - 128, 4096 - 64, 4096, 4096 + 64])


# ----------------------------------------------------------------------
# Algorithm oracles: exact request lists derived from each algorithm's
# definition (Ishii et al. for AMPM, Kim et al. for SPP, Shevgoor et al.
# for VLDP; see also "Arsenal of Hardware Prefetchers"), not from the
# implementation.
# ----------------------------------------------------------------------
def _lines(requests):
    return [r.line for r in requests] if requests else []


def _touch(pf, lines):
    """Each line's request lines, one access per line."""
    return [_lines(pf.on_access(make_event(addr=line << 6)))
            for line in lines]


def _ampm_ascending(count: int, step: int, top: int, degree: int = 4):
    """AMPM's requests for a zone touched at lines 0, step, 2*step, ...
    (``count`` touches, in line units from the zone base) in ascending
    order.

    At the m-th touch, line t = m*step, stride +j*step matches when
    lines t - j*step and t - 2*j*step were touched (j <= m // 2), and a
    stride is at most 16 lines.  Every request lies on the touch
    lattice above t, and the requested lines form one run from the
    lowest (each call requests the first free candidates, in stride
    order), so a call requests the lattice lines after
    max(t, the last requested line), at most ``degree`` of them, up to
    t + the longest matching stride and the zone's top line."""
    expected, last = [], 0
    for m in range(count):
        t = m * step
        reach = t + step * min(16 // step, m // 2)
        first = max(t, last) + step
        lines = list(range(first, min(reach, top) + 1, step))[:degree]
        if lines:
            last = lines[-1]
        expected.append(lines)
    return expected


class TestAmpmOracle:
    ZONE = 5 * 64          # first line of an arbitrary zone

    def test_every_line_ascending(self):
        pf = AmpmPrefetcher()
        got = _touch(pf, [self.ZONE + t for t in range(64)])
        want = [[self.ZONE + x for x in lines]
                for lines in _ampm_ascending(64, 1, 63)]
        assert got == want
        assert want[2] == [self.ZONE + 3] and want[4] == [self.ZONE + 5,
                                                          self.ZONE + 6]
        # Every line from 3 to the zone's last is requested once, before
        # its touch, and never one outside the zone.
        flat = [line for lines in got for line in lines]
        assert flat == list(range(self.ZONE + 3, self.ZONE + 64))

    def test_every_line_descending_mirrors_ascending(self):
        pf = AmpmPrefetcher()
        top = self.ZONE + 63
        got = _touch(pf, [top - t for t in range(64)])
        want = [[top - x for x in lines]
                for lines in _ampm_ascending(64, 1, 63)]
        assert got == want

    @pytest.mark.parametrize("step", [2, 3, 5, 8])
    def test_every_kth_line(self, step):
        pf = AmpmPrefetcher()
        count = 64 // step + (64 % step > 0)
        got = _touch(pf, [self.ZONE + m * step for m in range(count)])
        want = [[self.ZONE + x for x in lines]
                for lines in _ampm_ascending(count, step, 63)]
        assert got == want
        assert any(want)

    def test_degree_caps_a_call(self):
        """Lines 0-31 touched top down, then line 32: strides +1..+16
        all match and lines 33-48 are free, so the call requests the
        first ``degree`` of them."""
        for degree in (1, 2, 4):
            pf = AmpmPrefetcher(degree=degree)
            below = _touch(pf, [self.ZONE + 31 - t for t in range(32)])
            want = [[self.ZONE + 31 - x for x in lines]
                    for lines in _ampm_ascending(32, 1, 31, degree)]
            assert below == want
            assert _touch(pf, [self.ZONE + 32]) == [
                [self.ZONE + 33 + i for i in range(degree)]]

    def test_stride_order_and_both_directions(self):
        """+1 (lines 31, 30), +2 (30, 28) and -3 (35, 38) match at line
        32; the requests come in stride order +1, +2, -3.  The earlier
        touches match nothing.  Touching 32 again finds all three
        targets already prefetched."""
        pf = AmpmPrefetcher()
        z = self.ZONE
        assert _touch(pf, [z + 28, z + 30, z + 31, z + 35, z + 38]) == \
            [[]] * 5
        assert _touch(pf, [z + 32, z + 32]) == [[z + 33, z + 34, z + 29],
                                                []]

    def test_minus_stride_before_a_longer_plus_stride(self):
        """-2 (lines 22, 24) and +3 (17, 14) match at line 20: -2 is
        the shorter stride, so it comes first."""
        pf = AmpmPrefetcher()
        z = self.ZONE
        assert _touch(pf, [z + 14, z + 17, z + 22, z + 24]) == [[]] * 4
        assert _touch(pf, [z + 20]) == [[z + 18, z + 23]]

    def test_accessed_target_is_skipped(self):
        """+1 matches at line 32 but line 33 was touched; +2 still
        requests 34."""
        pf = AmpmPrefetcher()
        z = self.ZONE
        assert _touch(pf, [z + 28, z + 30, z + 31, z + 33]) == [[]] * 4
        assert _touch(pf, [z + 32]) == [[z + 34]]

    def test_129th_zone_evicts_least_recently_touched_map(self):
        pf = AmpmPrefetcher()
        for zone in range(128):
            _touch(pf, [zone * 64, zone * 64 + 1])
        _touch(pf, [1])                  # zone 0 is now the most recent
        _touch(pf, [128 * 64])           # evicts zone 1's map, not 0's
        assert list(pf._zones)[:2] == [2, 3] and len(pf._zones) == 128
        # Zone 0 still knows lines 0 and 1, so line 2 matches +1; zone 1
        # forgot them.
        assert _touch(pf, [2, 64 + 2]) == [[3], []]


class TestSppOracle:
    PAGE = 7 * 64

    def test_constant_delta_runs_ahead_to_the_page_end(self):
        """Offsets 0, 1, 2, ...: the fifth delta-1 access (offset 5)
        reaches the signature every later access keeps (four folded
        deltas), whose only candidate is +1 at confidence 1, so each
        lookahead walks max_lookahead (8) lines; the filter leaves one
        new line per access until the walk meets the page's end."""
        pf = SppPrefetcher()
        got = _touch(pf, [self.PAGE + o for o in range(64)])
        want = [[] for _ in range(64)]
        want[5] = [self.PAGE + o for o in range(6, 14)]
        for o in range(6, 56):
            want[o] = [self.PAGE + o + 8]
        assert got == want

    def test_path_confidence_product_stops_the_lookahead(self):
        """Page A, offsets 0, 2, ..., 12, then 13: the delta-2 signature
        S (four folded deltas of 2) sees +2 twice, then +1, so its path
        confidence is 2/3.  Page B, offsets 0 and 2: the walk follows
        the three confidence-1 signatures of page A's start (lines 4,
        6, 8), enters S (2/3, line 10) and stays there (4/9, line 12;
        8/27, line 14) until 16/81 drops below 0.25."""
        pf = SppPrefetcher()
        a, b = self.PAGE, self.PAGE + 64
        _touch(pf, [a + o for o in (0, 2, 4, 6, 8, 10, 12, 13)])
        assert _touch(pf, [b, b + 2]) == [
            [], [b + 4, b + 6, b + 8, b + 10, b + 12, b + 14]]

    def test_repeat_inside_the_filter_issues_nothing(self):
        """The stream again, after 256 fresh pages evicted the page's
        signature (a fresh page walks no lookahead, so the filter keeps
        every line): at offset 1 the new signature walks lines 2-9 at
        confidence 1, and only 2-5, which the first pass never
        requested, leave the filter; every other walk stays on lines
        the filter holds.  A third pass issues nothing."""
        pf = SppPrefetcher()
        stream = [self.PAGE + o for o in range(64)]

        def evict_signature():
            _touch(pf, [(1000 + page) * 64 for page in range(256)])
            assert self.PAGE >> 6 not in pf._signatures

        first = _touch(pf, stream)
        evict_signature()
        second = _touch(pf, stream)
        assert second == [[], [self.PAGE + o for o in range(2, 6)]] \
            + [[]] * 62
        requested = sorted(line for lines in first + second
                           for line in lines)
        assert requested == list(range(self.PAGE + 2, self.PAGE + 64))
        evict_signature()
        assert not any(_touch(pf, stream))
        # The same stream on a page the filter never saw issues again.
        assert any(_touch(pf, [64 * 99 + o for o in range(64)]))


class TestVldpOracle:
    def test_longest_history_wins(self):
        """Page A (offsets 10, 15, 16, 18: deltas 5, 1, 2) teaches
        DPT-2 (5, 1) -> 2; page B (20, 27, 28, 32: deltas 7, 1, 4) then
        rewrites DPT-1 1 -> 4.  On page C (30, 35, 36), after delta 5
        the chain predicts 1 (DPT-1) and then 2 from the two-delta
        history (5, 1), not DPT-1's 4; after delta 1 the same history
        predicts 2 again."""
        pf = VldpPrefetcher()
        a, b, c = 64, 2 * 64, 3 * 64
        assert _touch(pf, [a + 10, a + 15, a + 16, a + 18]) == [[]] * 4
        # B's delta 1 follows 7, which no two-delta history holds yet:
        # DPT-1 (1 -> 2, from page A) predicts line 30.
        assert _touch(pf, [b + 20, b + 27, b + 28, b + 32]) == [
            [], [], [b + 30], []]
        assert _touch(pf, [c + 30, c + 35, c + 36]) == [
            [], [c + 36, c + 38], [c + 38]]

    def test_opt_supplies_the_first_delta_of_a_fresh_page(self):
        """The first delta seen on a page trains the OPT under the
        page's first offset; a fresh page whose first offset is known
        gets one request at that delta, and none otherwise."""
        pf = VldpPrefetcher()
        _touch(pf, [64 + 10, 64 + 15, 2 * 64 + 20, 2 * 64 + 27])
        assert _touch(pf, [5 * 64 + 10, 6 * 64 + 20, 7 * 64 + 30]) == [
            [5 * 64 + 15], [6 * 64 + 27], []]
        # The latest first delta for an offset is the one predicted.
        assert _touch(pf, [8 * 64 + 60, 8 * 64 + 50]) == [[], []]
        assert _touch(pf, [9 * 64 + 60, 9 * 64 + 62]) == [[9 * 64 + 50],
                                                          []]
        assert _touch(pf, [10 * 64 + 60]) == [[10 * 64 + 62]]
