"""VLDP — Variable Length Delta Prefetcher (Shevgoor et al., MICRO 2015;
paper ref [29]).

Per-page delta histories feed multiple delta prediction tables (DPTs):
DPT-1 predicts from the single most recent delta, DPT-2 from the last two,
DPT-3 from the last three.  Prediction always prefers the longest-history
table that hits.  An offset prediction table (OPT) predicts the first
delta of a freshly touched page from its first-access offset.

Table II configuration: 64-entry DHB, 128-entry DPT, 128-entry OPT,
3.25 KB.
"""

from __future__ import annotations

from repro.core.base import AccessEvent, Prefetcher, PrefetchRequest

_LINES_PER_PAGE = 64
_KEY_BASE = 128  # deltas within a page lie in (-64, 64)


def _history_key(deltas) -> int:
    """A DPT key: the delta history (oldest first) as base-128 digits,
    one per delta, so a table's keys are distinct per history."""
    key = 0
    for delta in deltas:
        key = key * _KEY_BASE + delta
    return key


class _DhbEntry:
    """Delta history buffer entry for one page: the last offset, and
    the DPT keys of its last one, two and three deltas (``depth`` of
    them exist, at most 3)."""

    __slots__ = ("last_offset", "depth", "key1", "key2", "key3")

    def __init__(self, offset: int) -> None:
        self.last_offset = offset
        self.depth = 0
        self.key1 = self.key2 = self.key3 = 0


class _BoundedTable:
    """Insertion-ordered dict bounded to ``capacity`` (FIFO replacement:
    rewriting a present key keeps its place)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._data: dict = {}

    def put(self, key, value) -> None:
        if key not in self._data and len(self._data) >= self.capacity:
            self._data.pop(next(iter(self._data)))
        self._data[key] = value

    def clear(self) -> None:
        self._data.clear()


class _DeltaTable(_BoundedTable):
    """A DPT: delta history (a sequence, oldest first) -> next delta,
    stored under :func:`_history_key`."""

    def get(self, key):
        return self._data.get(_history_key(key))

    def put(self, key, value) -> None:
        super().put(_history_key(key), value)


class VldpPrefetcher(Prefetcher):
    name = "vldp"

    def __init__(self, dhb_entries: int = 64, dpt_entries: int = 128,
                 opt_entries: int = 128, degree: int = 4,
                 target_level: int = 1) -> None:
        self.dhb_entries = dhb_entries
        self.dpt_entries = dpt_entries
        self.opt_entries = opt_entries
        self.degree = degree
        self.target_level = target_level
        self._dhb = _BoundedTable(dhb_entries)           # page -> _DhbEntry
        # DPT-k maps the last k deltas -> predicted next delta.
        self._dpts = [_DeltaTable(dpt_entries) for _ in range(3)]
        self._opt = _BoundedTable(opt_entries)           # first offset -> delta

    def reset(self) -> None:
        self._dhb.clear()
        for dpt in self._dpts:
            dpt.clear()
        self._opt.clear()

    # ------------------------------------------------------------------
    def _predict(self, deltas: list[int]) -> int | None:
        """Longest-matching-history prediction."""
        for k in range(min(3, len(deltas)), 0, -1):
            prediction = self._dpts[k - 1].get(deltas[-k:])
            if prediction is not None:
                return prediction
        return None

    def on_access(self, event: AccessEvent):
        line = event.line
        page = line >> 6
        offset = line & 63
        dhb = self._dhb._data
        entry = dhb.get(page)
        if entry is None:
            if len(dhb) >= self.dhb_entries:
                del dhb[next(iter(dhb))]
            dhb[page] = _DhbEntry(offset)
            # First touch of a page: OPT predicts the first delta.  The
            # target stays in the page: the delta was learned on a page
            # whose first access had this offset.
            first_delta = self._opt._data.get(offset)
            if first_delta is None:
                return None
            return [
                PrefetchRequest((page << 6) + offset + first_delta,
                                self.target_level, self.name)
            ]

        delta = offset - entry.last_offset
        if delta == 0:
            return None
        # Train: the history that preceded this delta now predicts it.
        dpt1, dpt2, dpt3 = self._dpts
        dpt1 = dpt1._data
        dpt2 = dpt2._data
        dpt3 = dpt3._data
        capacity = self.dpt_entries
        depth = entry.depth
        key1 = entry.key1
        key2 = entry.key2
        if depth:
            if key1 not in dpt1 and len(dpt1) >= capacity:
                del dpt1[next(iter(dpt1))]
            dpt1[key1] = delta
            if depth >= 2:
                if key2 not in dpt2 and len(dpt2) >= capacity:
                    del dpt2[next(iter(dpt2))]
                dpt2[key2] = delta
                if depth == 3:
                    key3 = entry.key3
                    if key3 not in dpt3 and len(dpt3) >= capacity:
                        del dpt3[next(iter(dpt3))]
                    dpt3[key3] = delta
        else:
            # This was the first delta in the page: train the OPT.
            opt = self._opt._data
            first_offset = entry.last_offset
            if first_offset not in opt and len(opt) >= self.opt_entries:
                del opt[next(iter(opt))]
            opt[first_offset] = delta
        key3 = key2 * _KEY_BASE + delta
        key2 = key1 * _KEY_BASE + delta
        key1 = delta
        if depth < 3:
            depth += 1
            entry.depth = depth
        entry.key1 = key1
        entry.key2 = key2
        entry.key3 = key3
        entry.last_offset = offset

        # Predict a chain of future deltas, each from the longest
        # history a DPT holds (``_predict``).
        requests: list[PrefetchRequest] = []
        page_base = page << 6
        seen = 1 << offset
        for _ in range(self.degree):
            prediction = None
            if depth == 3:
                prediction = dpt3.get(key3)
            if prediction is None and depth >= 2:
                prediction = dpt2.get(key2)
            if prediction is None:
                prediction = dpt1.get(key1)
                if prediction is None:
                    break
            offset += prediction
            if not 0 <= offset < _LINES_PER_PAGE:
                break
            if not seen >> offset & 1:
                seen |= 1 << offset
                requests.append(
                    PrefetchRequest(page_base + offset,
                                    self.target_level, self.name)
                )
            key3 = key2 * _KEY_BASE + prediction
            key2 = key1 * _KEY_BASE + prediction
            key1 = prediction
            if depth < 3:
                depth += 1
        return requests or None

    @property
    def storage_bits(self) -> int:
        # DHB: 64 x (36 tag + 6 offset + 3x7 deltas); DPT: 3 x 128 x
        # (21 key + 7 delta); OPT: 128 x (6 + 7).
        return (
            self.dhb_entries * (36 + 6 + 21)
            + 3 * self.dpt_entries * (21 + 7)
            + self.opt_entries * 13
        )
