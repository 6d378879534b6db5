"""Differential tests: the AMPM and SPP hot paths against their
previous implementations.

``AmpmPrefetcher`` picks its victim zone from a recency-ordered dict and
tests stride candidates as bits of one integer holding three zone maps;
``SppPrefetcher``'s pattern entries pick candidates with
``counts.index``.  Neither may change a single request.  The classes
below are the earlier implementations, kept verbatim (renamed, and
without ``storage_bits``) as the reference: a random access stream goes
to both, and every ``on_access`` must return the same request list.
The streams cross zone and page boundaries in both directions and touch
enough zones and pages to evict from every table (128 access maps, 256
signatures, 512 patterns, 1,024 filter entries).
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from conftest import make_event
from repro.baselines.ampm import AmpmPrefetcher
from repro.baselines.spp import SppPrefetcher
from repro.core.base import AccessEvent, Prefetcher, PrefetchRequest


# ----------------------------------------------------------------------
# Reference implementations
# ----------------------------------------------------------------------
_ZONE_LINES = 64  # 4 KB zone of 64 B lines


class _Zone:
    __slots__ = ("accessed", "prefetched", "lru")

    def __init__(self, lru: int) -> None:
        self.accessed = 0
        self.prefetched = 0
        self.lru = lru


class ReferenceAmpm(Prefetcher):
    name = "ampm"

    def __init__(self, maps: int = 128, max_stride: int = 16,
                 degree: int = 4, target_level: int = 1) -> None:
        self.maps = maps
        self.max_stride = max_stride
        self.degree = degree
        self.target_level = target_level
        self._zones: dict[int, _Zone] = {}
        self._clock = 0

    def reset(self) -> None:
        self._zones.clear()
        self._clock = 0

    # ------------------------------------------------------------------
    def _zone(self, zone_id: int) -> _Zone:
        zone = self._zones.get(zone_id)
        if zone is None:
            if len(self._zones) >= self.maps:
                victim = min(self._zones, key=lambda z: self._zones[z].lru)
                del self._zones[victim]
            zone = _Zone(self._clock)
            self._zones[zone_id] = zone
        zone.lru = self._clock
        return zone

    def _is_accessed(self, zone_id: int, offset: int) -> bool:
        """Check the access bit, crossing into the neighbor zone if needed."""
        if offset < 0:
            neighbor = self._zones.get(zone_id - 1)
            return bool(
                neighbor and neighbor.accessed & (1 << (offset + _ZONE_LINES))
            )
        if offset >= _ZONE_LINES:
            neighbor = self._zones.get(zone_id + 1)
            return bool(
                neighbor and neighbor.accessed & (1 << (offset - _ZONE_LINES))
            )
        zone = self._zones.get(zone_id)
        return bool(zone and zone.accessed & (1 << offset))

    def on_access(self, event: AccessEvent):
        self._clock += 1
        zone_id = event.line // _ZONE_LINES
        offset = event.line % _ZONE_LINES
        zone = self._zone(zone_id)
        zone.accessed |= 1 << offset

        requests: list[PrefetchRequest] = []
        zone_base = zone_id * _ZONE_LINES
        for stride in range(1, self.max_stride + 1):
            if len(requests) >= self.degree:
                break
            for direction in (1, -1):
                k = stride * direction
                if (
                    self._is_accessed(zone_id, offset - k)
                    and self._is_accessed(zone_id, offset - 2 * k)
                ):
                    target_offset = offset + k
                    if 0 <= target_offset < _ZONE_LINES:
                        bit = 1 << target_offset
                        if not zone.accessed & bit and not zone.prefetched & bit:
                            zone.prefetched |= bit
                            requests.append(
                                PrefetchRequest(zone_base + target_offset,
                                                self.target_level, self.name)
                            )
                            if len(requests) >= self.degree:
                                break
        return requests or None


_SIGNATURE_BITS = 12
_SIGNATURE_MASK = (1 << _SIGNATURE_BITS) - 1
_LINES_PER_PAGE = 64


def _advance_signature(signature: int, delta: int) -> int:
    """The SPP signature update function: shift and fold in the delta."""
    return ((signature << 3) ^ (delta & 0x7F)) & _SIGNATURE_MASK


class _ReferencePatternEntry:
    """Candidate deltas (up to 4) with confidence counters for one
    signature."""

    __slots__ = ("deltas", "counts", "total")

    def __init__(self) -> None:
        self.deltas: list[int] = []
        self.counts: list[int] = []
        self.total = 0

    def update(self, delta: int) -> None:
        self.total += 1
        if delta in self.deltas:
            i = self.deltas.index(delta)
            self.counts[i] += 1
            return
        if len(self.deltas) < 4:
            self.deltas.append(delta)
            self.counts.append(1)
            return
        # Replace the weakest candidate.
        weakest = min(range(4), key=lambda i: self.counts[i])
        self.deltas[weakest] = delta
        self.counts[weakest] = 1

    def best(self) -> tuple[int, float] | None:
        if not self.deltas or self.total == 0:
            return None
        i = max(range(len(self.deltas)), key=lambda i: self.counts[i])
        return self.deltas[i], self.counts[i] / self.total


class ReferenceSpp(Prefetcher):
    name = "spp"

    def __init__(self, signature_entries: int = 256,
                 pattern_entries: int = 512,
                 filter_entries: int = 1024,
                 confidence_threshold: float = 0.25,
                 max_lookahead: int = 8,
                 target_level: int = 1) -> None:
        self.signature_entries = signature_entries
        self.pattern_entries = pattern_entries
        self.filter_entries = filter_entries
        self.confidence_threshold = confidence_threshold
        self.max_lookahead = max_lookahead
        self.target_level = target_level
        # page -> (signature, last offset); insertion order approximates LRU.
        self._signatures: dict[int, tuple[int, int]] = {}
        self._patterns: dict[int, _ReferencePatternEntry] = {}
        self._filter: dict[int, None] = {}

    def reset(self) -> None:
        self._signatures.clear()
        self._patterns.clear()
        self._filter.clear()

    # ------------------------------------------------------------------
    def _filter_admit(self, line: int) -> bool:
        """Prefetch filter: suppress recently requested lines."""
        if line in self._filter:
            return False
        if len(self._filter) >= self.filter_entries:
            self._filter.pop(next(iter(self._filter)))
        self._filter[line] = None
        return True

    def _pattern(self, signature: int) -> _ReferencePatternEntry:
        entry = self._patterns.get(signature)
        if entry is None:
            if len(self._patterns) >= self.pattern_entries:
                self._patterns.pop(next(iter(self._patterns)))
            entry = _ReferencePatternEntry()
            self._patterns[signature] = entry
        return entry

    # ------------------------------------------------------------------
    def on_access(self, event: AccessEvent):
        page = event.line // _LINES_PER_PAGE
        offset = event.line % _LINES_PER_PAGE
        stored = self._signatures.get(page)
        if stored is not None:
            signature, last_offset = stored
            delta = offset - last_offset
            if delta != 0:
                self._pattern(signature).update(delta)
                signature = _advance_signature(signature, delta)
                self._signatures[page] = (signature, offset)
        else:
            if len(self._signatures) >= self.signature_entries:
                self._signatures.pop(next(iter(self._signatures)))
            signature = _advance_signature(0, offset)
            self._signatures[page] = (signature, offset)
            return None

        # Lookahead down the signature path.
        requests: list[PrefetchRequest] = []
        confidence = 1.0
        speculative_offset = offset
        speculative_signature = signature
        page_base = page * _LINES_PER_PAGE
        for _ in range(self.max_lookahead):
            prediction = self._patterns.get(speculative_signature)
            best = prediction.best() if prediction is not None else None
            if best is None:
                break
            delta, path_confidence = best
            confidence *= path_confidence
            if confidence < self.confidence_threshold:
                break
            speculative_offset += delta
            if not 0 <= speculative_offset < _LINES_PER_PAGE:
                break  # SPP stops at page boundaries
            line = page_base + speculative_offset
            if self._filter_admit(line):
                requests.append(
                    PrefetchRequest(line, self.target_level, self.name)
                )
            speculative_signature = _advance_signature(
                speculative_signature, delta
            )
        return requests or None


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
def _stream(seed: int, length: int, zones: int) -> list[int]:
    """Addresses of a random access stream: strided runs (strides of
    either sign, up to 40 lines, so runs leave their zone both ways)
    from random lines of ``zones`` neighboring 4 KB zones, with
    scattered single accesses between runs."""
    rng = random.Random(seed)
    lines: list[int] = []
    while len(lines) < length:
        line = rng.randrange(zones * 64) + (1 << 20)
        if rng.random() < 0.2:
            lines.append(line)
            continue
        stride = rng.choice((1, 1, 2, 3, 5, 8, 17, 40)) * rng.choice((1, -1))
        for _ in range(rng.randrange(3, 60)):
            lines.append(line)
            line += stride
            if rng.random() < 0.1:
                line += rng.choice((1, -1))
    return [line << 6 for line in lines[:length]]


def _same_requests(new: Prefetcher, reference: Prefetcher,
                   addresses: list[int]) -> None:
    for call, addr in enumerate(addresses):
        event = make_event(addr=addr, hit=call % 3 == 0)
        got = new.on_access(event)
        want = reference.on_access(event)
        assert got == want, (call, addr, got, want)


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS)
def test_ampm_matches_reference(seed):
    new, reference = AmpmPrefetcher(), ReferenceAmpm()
    _same_requests(new, reference, _stream(seed, 3000, zones=400))
    assert len(new._zones) == len(reference._zones) == 128
    assert list(new._zones) == sorted(reference._zones,
                                      key=lambda z: reference._zones[z].lru)


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS)
def test_spp_matches_reference(seed):
    new, reference = SppPrefetcher(), ReferenceSpp()
    _same_requests(new, reference, _stream(seed, 4000, zones=600))
    assert list(new._signatures) == list(reference._signatures)
    assert list(new._filter) == list(reference._filter)
    assert ([(key, e.deltas, e.counts, e.total)
             for key, e in new._patterns.items()]
            == [(key, e.deltas, e.counts, e.total)
                for key, e in reference._patterns.items()])


def test_streams_evict_from_every_table():
    """A stream of the differential tests' shape fills and overflows
    each table, so both rewrites' eviction paths are among what those
    tests compare."""
    addresses = _stream(7, 4000, zones=600)
    ampm, spp = ReferenceAmpm(), ReferenceSpp()
    seen_patterns: set[int] = set()
    seen_filter: set[int] = set()
    for addr in addresses:
        event = make_event(addr=addr)
        ampm.on_access(event)
        spp.on_access(event)
        seen_patterns.update(spp._patterns)
        seen_filter.update(spp._filter)
    zones = {addr >> 12 for addr in addresses}
    assert len(zones) > 256
    assert len(ampm._zones) == 128 and len(spp._signatures) == 256
    assert len(seen_patterns) > 512 and len(spp._patterns) == 512
    assert len(seen_filter) > 1024 and len(spp._filter) == 1024
