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
_ZONE_MASK = (1 << _ZONE_LINES) - 1
_MAX_STRIDE = 16  # strides up to 16 need the 32 lines on each side


def _byte_table(f) -> bytes:
    return bytes(f(b) for b in range(256))


# ``_REV[b]``: byte ``b`` bit-reversed.  ``_ODD[b]``: bits 1, 3, 5, 7 of
# ``b`` as bits 0-3.  ``_REV_ODD[b] = _ODD[_REV[b]]``: bits 6, 4, 2, 0.
_REV = _byte_table(lambda b: int(f"{b:08b}"[::-1], 2))
_ODD = _byte_table(lambda b: sum((b >> (2 * i + 1) & 1) << i
                                 for i in range(4)))
_REV_ODD = _byte_table(lambda b: _ODD[_REV[b]])


class _Zone:
    __slots__ = ("accessed", "prefetched")

    def __init__(self) -> None:
        self.accessed = 0
        self.prefetched = 0


class AmpmPrefetcher(Prefetcher):
    name = "ampm"

    def __init__(self, maps: int = 128, max_stride: int = 16,
                 degree: int = 4, target_level: int = 1) -> None:
        if not 1 <= max_stride <= _MAX_STRIDE:
            raise ValueError(f"max_stride must be 1-{_MAX_STRIDE}, "
                             f"got {max_stride}")
        self.maps = maps
        self.max_stride = max_stride
        self.degree = degree
        self.target_level = target_level
        self._strides = (1 << max_stride) - 1
        # Zone maps in recency order: the first is the LRU victim.
        self._zones: dict[int, _Zone] = {}

    def reset(self) -> None:
        self._zones.clear()

    # ------------------------------------------------------------------
    def on_access(self, event: AccessEvent):
        line = event.line
        zone_id = line >> 6
        offset = line & 63
        zones = self._zones
        zone = zones.pop(zone_id, None)
        if zone is None:
            if len(zones) >= self.maps:
                del zones[next(iter(zones))]
            zone = _Zone()
        zones[zone_id] = zone
        accessed = zone.accessed | 1 << offset
        zone.accessed = accessed

        # ``low``: the 32 lines below the access, bit i = line
        # ``offset - 32 + i``; ``high``: the 32 above, bit i = line
        # ``offset + 1 + i``.  One of the two reaches into a neighbor
        # zone (looked up after the victim left, as a miss may evict it).
        if offset >= 32:
            low = accessed >> (offset - 32) & 0xFFFFFFFF
            high = accessed >> (offset + 1)
            above = zones.get(zone_id + 1)
            if above is not None:
                high = (high | above.accessed << (63 - offset)) & 0xFFFFFFFF
        else:
            low = accessed << (32 - offset) & 0xFFFFFFFF
            below = zones.get(zone_id - 1)
            if below is not None:
                low |= below.accessed >> (offset + 32)
            high = accessed >> (offset + 1) & 0xFFFFFFFF

        # Stride +k matches when lines offset-k and offset-2k were
        # accessed: with ``low`` bit-reversed (bit k-1 = line offset-k),
        # bit k-1 of its low half and bit 2k-1, the k-th odd bit.  Stride
        # -k reads ``high`` the same way without the reversal.
        b3 = low >> 24
        b2 = low >> 16 & 255
        up = ((_REV[b3] | _REV[b2] << 8)
              & (_REV_ODD[b3] | _REV_ODD[b2] << 4
                 | _REV_ODD[low >> 8 & 255] << 8
                 | _REV_ODD[low & 255] << 12))
        down = (high & (_ODD[high & 255] | _ODD[high >> 8 & 255] << 4
                        | _ODD[high >> 16 & 255] << 8
                        | _ODD[high >> 24] << 12))
        if not (up or down):
            return None
        # Targets inside the zone, neither accessed nor prefetched: bit
        # k-1 of ``up`` is line offset+k, of ``down`` line offset-k.
        prefetched = zone.prefetched
        free = (accessed | prefetched) ^ _ZONE_MASK
        strides = self._strides
        up &= free >> (offset + 1) & strides
        below_free = (free << 16) >> offset & 0xFFFF
        down &= (_REV[below_free & 255] << 8 | _REV[below_free >> 8]) & strides
        candidates = up | down
        if not candidates:
            return None

        # Issue in stride order +1, -1, +2, -2, ... up to ``degree``.
        # Strides +k and -k never both match: +k needs line offset+k
        # free, -k needs it accessed.  So each candidate bit is one
        # stride, and ascending bits are that order.
        requests: list[PrefetchRequest] = []
        degree = self.degree
        zone_base = zone_id << 6
        level = self.target_level
        name = self.name
        while candidates and len(requests) < degree:
            bit = candidates & -candidates
            candidates ^= bit
            k = bit.bit_length()
            target = offset + k if up & bit else offset - k
            prefetched |= 1 << target
            requests.append(PrefetchRequest(zone_base + target, level, name))
        zone.prefetched = prefetched
        return requests or None

    @property
    def storage_bits(self) -> int:
        # 128 maps x (256b map state + tag) per Table II's 4 KB budget.
        return self.maps * 256
