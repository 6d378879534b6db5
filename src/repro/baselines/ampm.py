"""AMPM — Access Map Pattern Matching (Ishii et al., JILP 2011; paper ref
[12]).

Memory is divided into zones (4 KB = 64 lines here); each tracked zone
keeps an access bitmap.  On every access at line *t*, the pattern matcher
checks, for each candidate stride *k*, whether lines *t-k* and *t-2k*
were both accessed; if so, *t+k* is a predicted future access and is
prefetched (symmetrically for negative strides).

Table II configuration: 128 access maps, 256 bits per map, 4 KB.
"""

from __future__ import annotations

from repro.core.base import AccessEvent, Prefetcher, PrefetchRequest

_ZONE_LINES = 64  # 4 KB zone of 64 B lines


class _Zone:
    __slots__ = ("accessed", "prefetched")

    def __init__(self) -> None:
        self.accessed = 0
        self.prefetched = 0


class AmpmPrefetcher(Prefetcher):
    name = "ampm"

    def __init__(self, maps: int = 128, max_stride: int = 16,
                 degree: int = 4, target_level: int = 1) -> None:
        self.maps = maps
        self.max_stride = max_stride
        self.degree = degree
        self.target_level = target_level
        # Zone maps in recency order: the first is the LRU victim.
        self._zones: dict[int, _Zone] = {}

    def reset(self) -> None:
        self._zones.clear()

    # ------------------------------------------------------------------
    def _zone(self, zone_id: int) -> _Zone:
        zones = self._zones
        zone = zones.pop(zone_id, None)
        if zone is None:
            if len(zones) >= self.maps:
                del zones[next(iter(zones))]
            zone = _Zone()
        zones[zone_id] = zone
        return zone

    def on_access(self, event: AccessEvent):
        zone_id = event.line // _ZONE_LINES
        offset = event.line % _ZONE_LINES
        zone = self._zone(zone_id)
        accessed = zone.accessed | 1 << offset
        zone.accessed = accessed

        # The previous, this and the next zone's access maps side by
        # side, so line ``offset + j`` (crossing into a neighbor when it
        # leaves this zone) is bit ``here + j``.  Strides up to half a
        # zone stay inside the window.
        zones = self._zones
        window = accessed << _ZONE_LINES
        below = zones.get(zone_id - 1)
        if below is not None:
            window |= below.accessed
        above = zones.get(zone_id + 1)
        if above is not None:
            window |= above.accessed << (2 * _ZONE_LINES)
        here = offset + _ZONE_LINES

        requests: list[PrefetchRequest] = []
        zone_base = zone_id * _ZONE_LINES
        degree = self.degree
        for stride in range(1, self.max_stride + 1):
            if len(requests) >= degree:
                break
            for k in (stride, -stride):
                if window >> (here - k) & 1 and window >> (here - 2 * k) & 1:
                    target_offset = offset + k
                    if 0 <= target_offset < _ZONE_LINES:
                        bit = 1 << target_offset
                        if not accessed & bit and not zone.prefetched & bit:
                            zone.prefetched |= bit
                            requests.append(
                                PrefetchRequest(zone_base + target_offset,
                                                self.target_level, self.name)
                            )
                            if len(requests) >= degree:
                                break
        return requests or None

    @property
    def storage_bits(self) -> int:
        # 128 maps x (256b map state + tag) per Table II's 4 KB budget.
        return self.maps * 256
