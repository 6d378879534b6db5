"""SPP — Signature Path Prefetcher (Kim et al., MICRO 2016; paper ref [17]).

Per-4KB-page signatures compress the recent delta history; a pattern table
maps a signature to candidate next deltas with confidence counters.  The
lookahead mechanism chains predictions — each predicted delta produces a
new speculative signature, and prefetching continues down the "path" while
the multiplied confidence stays above threshold.

Table II configuration: 256-entry signature table, 512-entry pattern
table, 1024-entry prefetch filter, 8-entry GHR, 5 KB.
"""

from __future__ import annotations

from repro.core.base import AccessEvent, Prefetcher, PrefetchRequest

_SIGNATURE_BITS = 12
_SIGNATURE_MASK = (1 << _SIGNATURE_BITS) - 1
_LINES_PER_PAGE = 64


def _advance_signature(signature: int, delta: int) -> int:
    """The SPP signature update function: shift and fold in the delta."""
    return ((signature << 3) ^ (delta & 0x7F)) & _SIGNATURE_MASK


class _PatternEntry:
    """Candidate deltas (up to 4) with confidence counters for one
    signature."""

    __slots__ = ("deltas", "counts", "total")

    def __init__(self) -> None:
        self.deltas: list[int] = []
        self.counts: list[int] = []
        self.total = 0

    def update(self, delta: int) -> None:
        self.total += 1
        deltas = self.deltas
        counts = self.counts
        if delta in deltas:
            counts[deltas.index(delta)] += 1
            return
        if len(deltas) < 4:
            deltas.append(delta)
            counts.append(1)
            return
        # Replace the weakest candidate (the first, on a tie).
        weakest = counts.index(min(counts))
        deltas[weakest] = delta
        counts[weakest] = 1

    def best(self) -> tuple[int, float] | None:
        if not self.deltas or self.total == 0:
            return None
        # The strongest candidate (the first, on a tie).
        counts = self.counts
        count = max(counts)
        return self.deltas[counts.index(count)], count / self.total


class SppPrefetcher(Prefetcher):
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
        self._patterns: dict[int, _PatternEntry] = {}
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

    def _pattern(self, signature: int) -> _PatternEntry:
        entry = self._patterns.get(signature)
        if entry is None:
            if len(self._patterns) >= self.pattern_entries:
                self._patterns.pop(next(iter(self._patterns)))
            entry = _PatternEntry()
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

    @property
    def storage_bits(self) -> int:
        # ST: 256 x (16 tag + 12 sig + 6 offset); PT: 512 x 4 x (7 delta +
        # 4 count); filter: 1024 x 16; GHR folded into ST here.
        return (
            self.signature_entries * (16 + 12 + 6)
            + self.pattern_entries * 4 * (7 + 4)
            + self.filter_entries * 16
        )
