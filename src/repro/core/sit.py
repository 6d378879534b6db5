"""Stride Identifier Table and per-instruction I-cache state bits
(paper Sec. IV-A-2, Fig. 3-b).

Each memory instruction is labeled with one of four states, conceptually
stored as two bits per instruction in the I-cache:

* ``UNKNOWN`` (0) — ignored until it triggers a primary L1 miss,
* ``OBSERVATION`` (1) — every instance updates its SIT entry,
* ``STRIDED`` (2) — confirmed canonical stream, prefetched,
* ``NON_STRIDED`` (3) — given up on.

The SIT itself has 32 entries (Table II), indexed by the
call-site-disambiguated ``mPC`` (PC xor RAS top) and tracking the last
address and the delta between consecutive instances.

The labeling criteria come straight from the paper: sixteen consecutive
instances of the same delta -> ``STRIDED``; four consecutive instances of
a *changing* delta -> ``NON_STRIDED``; prefetching already begins in
``OBSERVATION`` after four consecutive identical deltas.
"""

from __future__ import annotations

import enum


class InstructionState(enum.IntEnum):
    UNKNOWN = 0
    OBSERVATION = 1
    STRIDED = 2
    NON_STRIDED = 3


UNKNOWN = InstructionState.UNKNOWN
OBSERVATION = InstructionState.OBSERVATION
STRIDED = InstructionState.STRIDED
NON_STRIDED = InstructionState.NON_STRIDED
"""The members as module globals: T2 tests a state once or twice per
access, and an ``is`` against a global costs a fraction of an
``InstructionState.X`` lookup."""

STRIDED_THRESHOLD = 16
"""Consecutive identical deltas to label an instruction STRIDED."""

NON_STRIDED_THRESHOLD = 4
"""Consecutive changing deltas to label an instruction NON_STRIDED."""

EARLY_ISSUE_THRESHOLD = 4
"""Consecutive identical deltas before prefetching starts in OBSERVATION."""


class SitEntry:
    """One tracked memory instruction (updated by
    :meth:`StrideIdentifierTable.observe`)."""

    __slots__ = ("mpc", "last_addr", "delta", "same_count", "diff_count",
                 "run_estimate")

    def __init__(self, mpc: int, addr: int) -> None:
        self.mpc = mpc
        self.last_addr = addr
        self.delta = 0
        self.same_count = 0
        self.diff_count = 0
        # Learned typical run length of this stream (0 = unknown / long).
        # A stream that repeatedly breaks after N stable deltas (e.g. a
        # 16-line region sweep) teaches T2 not to prefetch past N.
        self.run_estimate = 0.0

    @property
    def stable(self) -> bool:
        """Delta stable enough to begin (early) prefetching."""
        return self.delta != 0 and self.same_count >= EARLY_ISSUE_THRESHOLD


class StrideIdentifierTable:
    """Bounded SIT with LRU replacement, plus the I-cache state bits.

    ``_table`` is kept in recency order (every observed instance and
    allocation moves its entry to the end), so the LRU victim is the
    first key.  ``states`` holds the I-cache state bits: a PC's
    :class:`InstructionState` member, stored once T2 labels it (a PC
    with no entry is ``UNKNOWN``).  They outlive the PC's SIT entry.
    """

    def __init__(self, entries: int = 32) -> None:
        self.entries = entries
        self._table: dict[int, SitEntry] = {}
        self.states: dict[int, InstructionState] = {}

    def reset(self) -> None:
        self._table.clear()
        self.states.clear()

    # ------------------------------------------------------------------
    def observe(self, mpc: int, addr: int) -> SitEntry | None:
        """Update ``mpc``'s entry with a new instance at ``addr`` and
        return it, most recently used now; ``None`` when the SIT does
        not track ``mpc``."""
        table = self._table
        entry = table.pop(mpc, None)
        if entry is None:
            return None
        table[mpc] = entry
        delta = addr - entry.last_addr
        entry.last_addr = addr
        if delta == entry.delta:
            entry.same_count += 1
            entry.diff_count = 0
        else:
            same = entry.same_count
            if same >= 4:
                # A proven run just ended: learn its length.
                if entry.run_estimate == 0.0:
                    entry.run_estimate = float(same)
                else:
                    entry.run_estimate += 0.5 * (same - entry.run_estimate)
            entry.delta = delta
            entry.same_count = 1
            entry.diff_count += 1
        return entry

    def allocate(self, mpc: int, addr: int) -> SitEntry:
        table = self._table
        entry = table.pop(mpc, None)
        if entry is None:
            if len(table) >= self.entries:
                del table[next(iter(table))]
            entry = SitEntry(mpc, addr)
        table[mpc] = entry
        return entry

    def drop(self, mpc: int) -> None:
        self._table.pop(mpc, None)

    def __len__(self) -> int:
        return len(self._table)

    @property
    def storage_bits(self) -> int:
        # 32 x (32b tag + 58b last addr + 16b delta + 2x5b counters + ptr).
        return self.entries * (32 + 58 + 16 + 10 + 17)
