"""Differential tests: the AMPM, SPP and VLDP hot paths against their
previous implementations, and the replay's one refilled AccessEvent.

``AmpmPrefetcher`` finds every stride candidate at once as two masks
over the 32 lines on each side of the access; ``SppPrefetcher``'s
pattern entries keep their strongest candidate current;
``VldpPrefetcher`` keys its delta prediction tables by integers and
reads its bounded tables as plain dicts.  None of that may change a
single request.  The classes below are earlier implementations, kept
verbatim (renamed, and without ``storage_bits``) as the reference:

* random access streams go to a new and a reference prefetcher side
  by side, and every ``on_access`` must return the same request list.
  The streams cross zone and page boundaries in both directions and
  touch enough zones and pages to evict from every table (128 access
  maps; 256 signatures, 512 patterns, 1,024 filter entries; VLDP's
  delta history buffer, its three delta prediction tables and its
  offset prediction table).
* whole cells: ``ampm``, ``spp``, ``vldp`` and TPC with all three as
  extras, built from the reference classes, equal the registry's cells
  on every reported figure, over the stress suite and fuzz seeds, on
  the segmented tier and the generic loop.

Both replay paths refill one ``AccessEvent`` per replay instead of
building one per access, which is sound only while no hook keeps the
event past its call: ``test_no_hook_keeps_the_event`` checks that for
every registry prefetcher and the composed prefetchers the experiments
build.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_event
from repro.analysis.classify import Category
from repro.baselines.ampm import AmpmPrefetcher
from repro.baselines.spp import SppPrefetcher
from repro.baselines.vldp import VldpPrefetcher, _history_key
from repro.core.base import AccessEvent, Prefetcher, PrefetchRequest
from repro.core.composite import make_shunt, make_tpc
from repro.engine.kernel import pinned_kernel
from repro.engine.system import simulate
from repro.experiments.fig16 import OracleDestinationPrefetcher
from repro.identity import diff_fields, identity_tuple
from repro.prefetcher_registry import available_prefetchers, make_prefetcher
from repro.workloads import get_suite
from repro.workloads.fuzz import fuzz_workload


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


class _ReferenceDhbEntry:
    """Delta history buffer entry for one page."""

    __slots__ = ("last_offset", "deltas")

    def __init__(self, offset: int) -> None:
        self.last_offset = offset
        self.deltas: list[int] = []

    def push(self, delta: int) -> None:
        self.deltas.append(delta)
        if len(self.deltas) > 3:
            self.deltas.pop(0)


class _ReferenceBoundedTable:
    """Insertion-ordered dict bounded to ``capacity`` (FIFO replacement)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._data: dict = {}

    def get(self, key):
        return self._data.get(key)

    def put(self, key, value) -> None:
        if key not in self._data and len(self._data) >= self.capacity:
            self._data.pop(next(iter(self._data)))
        self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


class ReferenceVldp(Prefetcher):
    name = "vldp"

    def __init__(self, dhb_entries: int = 64, dpt_entries: int = 128,
                 opt_entries: int = 128, degree: int = 4,
                 target_level: int = 1) -> None:
        self.dhb_entries = dhb_entries
        self.dpt_entries = dpt_entries
        self.opt_entries = opt_entries
        self.degree = degree
        self.target_level = target_level
        self._dhb = _ReferenceBoundedTable(dhb_entries)  # page -> entry
        # DPT-k maps a tuple of the last k deltas -> predicted next delta.
        self._dpts = [_ReferenceBoundedTable(dpt_entries) for _ in range(3)]
        self._opt = _ReferenceBoundedTable(opt_entries)  # offset -> delta

    def reset(self) -> None:
        self._dhb.clear()
        for dpt in self._dpts:
            dpt.clear()
        self._opt.clear()

    # ------------------------------------------------------------------
    def _predict(self, deltas: list[int]) -> int | None:
        """Longest-matching-history prediction."""
        for k in range(min(3, len(deltas)), 0, -1):
            key = tuple(deltas[-k:])
            prediction = self._dpts[k - 1].get(key)
            if prediction is not None:
                return prediction
        return None

    def on_access(self, event: AccessEvent):
        page = event.line // _LINES_PER_PAGE
        offset = event.line % _LINES_PER_PAGE
        entry = self._dhb.get(page)
        if entry is None:
            self._dhb.put(page, _ReferenceDhbEntry(offset))
            # First touch of a page: OPT predicts the first delta.
            first_delta = self._opt.get(offset)
            if first_delta is None:
                return None
            target = offset + first_delta
            if not 0 <= target < _LINES_PER_PAGE:
                return None
            return [
                PrefetchRequest(page * _LINES_PER_PAGE + target,
                                self.target_level, self.name)
            ]

        delta = offset - entry.last_offset
        if delta == 0:
            return None
        # Train: the history that preceded this delta now predicts it.
        deltas = entry.deltas
        for k in range(1, min(3, len(deltas)) + 1):
            self._dpts[k - 1].put(tuple(deltas[-k:]), delta)
        if not deltas:
            # This was the first delta in the page: train the OPT.
            first_offset = entry.last_offset
            self._opt.put(first_offset, delta)
        entry.push(delta)
        entry.last_offset = offset

        # Predict a chain of future deltas.
        requests: list[PrefetchRequest] = []
        speculative = list(entry.deltas)
        speculative_offset = offset
        page_base = page * _LINES_PER_PAGE
        seen = {event.line}
        for _ in range(self.degree):
            prediction = self._predict(speculative)
            if prediction is None:
                break
            speculative_offset += prediction
            if not 0 <= speculative_offset < _LINES_PER_PAGE:
                break
            line = page_base + speculative_offset
            if line not in seen:
                seen.add(line)
                requests.append(
                    PrefetchRequest(line, self.target_level, self.name)
                )
            speculative.append(prediction)
            if len(speculative) > 3:
                speculative.pop(0)
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


@pytest.mark.parametrize("kwargs", [
    {"max_stride": 1}, {"max_stride": 5, "degree": 2},
    {"degree": 1}, {"degree": 0}, {"maps": 8, "degree": 16},
])
def test_ampm_configurations_match_reference(kwargs):
    """Stride masks narrower than the window, and every ``degree`` cap
    (none, one, more requests than candidates)."""
    new, reference = AmpmPrefetcher(**kwargs), ReferenceAmpm(**kwargs)
    _same_requests(new, reference, _stream(11, 3000, zones=400))


def test_ampm_stride_reach_is_the_window():
    """Strides up to 16 lines fit the 32 lines read on each side."""
    with pytest.raises(ValueError):
        AmpmPrefetcher(max_stride=17)
    with pytest.raises(ValueError):
        AmpmPrefetcher(max_stride=0)


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


@pytest.mark.parametrize("kwargs", [
    {"max_lookahead": 0}, {"max_lookahead": 1}, {"max_lookahead": 16},
    {"confidence_threshold": 0.0}, {"confidence_threshold": 0.6},
    {"signature_entries": 8, "pattern_entries": 16, "filter_entries": 32},
])
def test_spp_configurations_match_reference(kwargs):
    """Other lookahead depths, thresholds and table sizes."""
    new, reference = SppPrefetcher(**kwargs), ReferenceSpp(**kwargs)
    _same_requests(new, reference, _stream(11, 3000, zones=400))

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


# ----------------------------------------------------------------------
# VLDP
# ----------------------------------------------------------------------
# Small tables, so that DPT-1 (at most 126 one-delta histories) and the
# OPT (64 first offsets) overflow too.
_SMALL_VLDP = {"dhb_entries": 16, "dpt_entries": 24, "opt_entries": 12}


def _vldp_view(vldp) -> tuple:
    """The DHB pages with their last offsets and history keys, and each
    DPT's and the OPT's contents, in table order; a reference's tuple
    keys encoded as the rewrite stores them."""
    pages = []
    for page, entry in vldp._dhb._data.items():
        if isinstance(vldp, ReferenceVldp):
            deltas = entry.deltas
            keys = tuple(_history_key(deltas[-k:])
                         for k in range(1, len(deltas) + 1))
        else:
            keys = (entry.key1, entry.key2, entry.key3)[:entry.depth]
        pages.append((page, entry.last_offset, keys))
    dpts = [[(key if isinstance(key, int) else _history_key(key), value)
             for key, value in dpt._data.items()] for dpt in vldp._dpts]
    return pages, dpts, list(vldp._opt._data.items())


@pytest.mark.parametrize("tables", [{}, _SMALL_VLDP])
@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS)
def test_vldp_matches_reference(tables, seed):
    new, reference = VldpPrefetcher(**tables), ReferenceVldp(**tables)
    _same_requests(new, reference, _stream(seed, 4000, zones=600))
    assert _vldp_view(new) == _vldp_view(reference)


@pytest.mark.parametrize("degree", [0, 1, 8])
def test_vldp_degrees_match_reference(degree):
    new, reference = VldpPrefetcher(degree=degree), ReferenceVldp(degree=degree)
    _same_requests(new, reference, _stream(11, 3000, zones=400))

def test_vldp_streams_evict_from_every_table():
    """The VLDP differential test's streams overflow the delta history
    buffer and DPT-2 and DPT-3 at Table II's sizes, and every table,
    DPT-1 and the OPT included, at the small sizes."""
    addresses = _stream(7, 4000, zones=600)
    for tables, full in (({}, ("dhb", "dpt2", "dpt3")),
                         (_SMALL_VLDP, ("dhb", "dpt1", "dpt2", "dpt3",
                                        "opt"))):
        vldp = ReferenceVldp(**tables)
        named = {"dhb": vldp._dhb, "dpt1": vldp._dpts[0],
                 "dpt2": vldp._dpts[1], "dpt3": vldp._dpts[2],
                 "opt": vldp._opt}
        seen = {name: set() for name in named}
        for addr in addresses:
            vldp.on_access(make_event(addr=addr))
            for name, table in named.items():
                seen[name].update(table._data)
        for name in full:
            table = named[name]
            assert len(table) == table.capacity, (tables, name)
            assert len(seen[name]) > table.capacity, (tables, name)


# ----------------------------------------------------------------------
# Whole cells
# ----------------------------------------------------------------------
_REFERENCES = {"ampm": ReferenceAmpm, "spp": ReferenceSpp,
               "vldp": ReferenceVldp}
_WITH_EXTRAS = "tpc+ampm+spp+vldp"


def _cell(spec: str, reference: bool) -> Prefetcher:
    if spec == _WITH_EXTRAS:
        if reference:
            extras = [build() for build in _REFERENCES.values()]
        else:
            extras = [make_prefetcher(name) for name in _REFERENCES]
        return make_tpc(extras=extras)
    return _REFERENCES[spec]() if reference else make_prefetcher(spec)


@pytest.fixture(scope="module")
def cell_traces():
    workloads = get_suite("stress") + [fuzz_workload(seed)
                                       for seed in range(3)]
    return [(workload.name, workload.trace()) for workload in workloads]


@pytest.mark.parametrize("tier", [None, "generic"])
@pytest.mark.parametrize("spec", [*_REFERENCES, _WITH_EXTRAS])
def test_cells_from_reference_classes_match(spec, tier, cell_traces):
    """Every figure of a cell whose prefetcher is built from the
    reference classes equals the registry's cell, on both replay
    paths (``None``: the automatic pick, the segmented tier)."""
    for name, trace in cell_traces:
        with pinned_kernel(tier):
            got = simulate(trace, _cell(spec, reference=False))
            want = simulate(trace, _cell(spec, reference=True))
        assert got.kernel == want.kernel
        assert got.kernel.startswith("segmented+" if tier is None
                                     else "generic")
        assert identity_tuple(got) == identity_tuple(want), (
            name, diff_fields(got, want))


# ----------------------------------------------------------------------
# The refilled event
# ----------------------------------------------------------------------
def _guard(prefetcher: Prefetcher, kept: list, calls: list) -> Prefetcher:
    """Wrap ``prefetcher``'s event hooks (the ones the replay calls):
    a hook that still holds the event after it returns, anywhere in
    the prefetcher, leaves the event's reference count raised."""
    for attr in ("observe_access", "on_access"):
        hook = getattr(prefetcher, attr)

        def guarded(event, hook=hook, attr=attr):
            before = sys.getrefcount(event)
            result = hook(event)
            calls.append(attr)
            if sys.getrefcount(event) != before:
                kept.append(attr)
            return result
        setattr(prefetcher, attr, guarded)
    return prefetcher


class _Keeper(Prefetcher):
    """Keeps the last event: what the guard must catch."""

    name = "keeper"

    def on_access(self, event):
        self.last = event


def _oracle_category(line: int) -> Category:
    return Category.LHF if line % 3 else Category.HHF


_EVENT_CELLS = {
    **{name: (lambda name=name: make_prefetcher(name))
       for name in available_prefetchers()},
    "tpc+extras": lambda: make_tpc(extras=[
        make_prefetcher(name)
        for name in ("vldp", "spp", "fdp", "sms", "ampm", "bop", "ghb",
                     "stride")]),
    "shunt": lambda: make_shunt([make_prefetcher("bop"),
                                 make_prefetcher("ampm")]),
    "oracle": lambda: OracleDestinationPrefetcher(make_prefetcher("spp"),
                                                  _oracle_category),
    "oracle-tpc": lambda: OracleDestinationPrefetcher(make_tpc(),
                                                      _oracle_category),
}


def test_event_guard_catches_a_keeper():
    kept, calls = [], []
    trace = get_suite("stress")[0].trace()
    simulate(trace, _guard(_Keeper(), kept, calls))
    assert calls and len(kept) == 1


@pytest.mark.parametrize("spec", sorted(_EVENT_CELLS))
def test_no_hook_keeps_the_event(spec):
    """No hook of any registry prefetcher, TPC with extras, the shunt,
    or Fig. 16's oracle wrapper holds an ``AccessEvent`` once it
    returns, so one event per replay can be refilled at every access."""
    for workload in get_suite("stress"):
        kept, calls = [], []
        simulate(workload.trace(), _guard(_EVENT_CELLS[spec](), kept, calls))
        assert calls, workload.name
        assert not kept, (workload.name, kept[:3])
