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
    """Candidate deltas (up to 4) with confidence counters for the
    signature ``signature``.  The strongest candidate (the first, on a
    tie) is kept current: its index ``top``, ``best_delta`` and
    ``best_count``, its path ``confidence`` (``best_count / total``) and
    the signature it leads to, ``next_signature``."""

    __slots__ = ("signature", "deltas", "counts", "total", "top",
                 "best_delta", "best_count", "confidence",
                 "next_signature")

    def __init__(self, signature: int = 0) -> None:
        self.signature = signature
        self.deltas: list[int] = []
        self.counts: list[int] = []
        self.total = 0
        self.top = 0
        self.best_delta = 0
        self.best_count = 0
        self.confidence = 0.0
        self.next_signature = 0

    def update(self, delta: int) -> None:
        total = self.total = self.total + 1
        deltas = self.deltas
        counts = self.counts
        if delta in deltas:
            i = deltas.index(delta)
            count = counts[i] = counts[i] + 1
            # Only this count grew: it leads if it passed the leader,
            # or tied it from an earlier index.
            if count > self.best_count or (count == self.best_count
                                           and i < self.top):
                self.top = i
                self.best_count = count
                if delta != self.best_delta:
                    self._lead(delta)
        elif len(deltas) < 4:
            deltas.append(delta)
            counts.append(1)
            if total == 1:
                self.best_count = 1
                self._lead(delta)
        else:
            # Replace the weakest candidate (the first, on a tie); it
            # may have been the leader, so find the leader again.
            weakest = counts.index(min(counts))
            deltas[weakest] = delta
            counts[weakest] = 1
            count = self.best_count = max(counts)
            top = self.top = counts.index(count)
            self._lead(deltas[top])
        self.confidence = self.best_count / total

    def _lead(self, delta: int) -> None:
        self.best_delta = delta
        self.next_signature = _advance_signature(self.signature, delta)

    def best(self) -> tuple[int, float] | None:
        if not self.total:
            return None
        return self.best_delta, self.confidence


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
        # page -> signature << 6 | last offset; insertion order
        # approximates LRU.
        self._signatures: dict[int, int] = {}
        self._patterns: dict[int, _PatternEntry] = {}
        self._filter: dict[int, None] = {}

    def reset(self) -> None:
        self._signatures.clear()
        self._patterns.clear()
        self._filter.clear()

    # ------------------------------------------------------------------
    def on_access(self, event: AccessEvent):
        line = event.line
        page = line >> 6
        offset = line & 63
        signatures = self._signatures
        stored = signatures.get(page)
        if stored is None:
            if len(signatures) >= self.signature_entries:
                del signatures[next(iter(signatures))]
            # The signature _advance_signature(0, offset) is the offset.
            signatures[page] = offset << 6 | offset
            return None
        patterns = self._patterns
        signature = stored >> 6
        delta = offset - (stored & 63)
        if delta != 0:
            entry = patterns.get(signature)
            if entry is None:
                if len(patterns) >= self.pattern_entries:
                    del patterns[next(iter(patterns))]
                entry = patterns[signature] = _PatternEntry(signature)
            entry.update(delta)
            signature = ((signature << 3) ^ (delta & 0x7F)) & _SIGNATURE_MASK
            signatures[page] = signature << 6 | offset

        # Lookahead down the signature path.  Every pattern entry holds
        # at least one candidate: it is created with its first update.
        requests: list[PrefetchRequest] = []
        confidence = 1.0
        threshold = self.confidence_threshold
        speculative_offset = offset
        page_base = page << 6
        filt = self._filter
        for _ in range(self.max_lookahead):
            entry = patterns.get(signature)
            if entry is None:
                break
            confidence *= entry.confidence
            if confidence < threshold:
                break
            speculative_offset += entry.best_delta
            if not 0 <= speculative_offset < _LINES_PER_PAGE:
                break  # SPP stops at page boundaries
            target = page_base + speculative_offset
            # Prefetch filter: suppress recently requested lines.
            if target not in filt:
                if len(filt) >= self.filter_entries:
                    del filt[next(iter(filt))]
                filt[target] = None
                requests.append(
                    PrefetchRequest(target, self.target_level, self.name)
                )
            signature = entry.next_signature
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
