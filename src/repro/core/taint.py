"""P1's taint propagation unit (paper Sec. IV-B-1, "TPU" in Table II).

A single 32-bit vector (one bit per logical register, 64 bits budgeted in
Table II) tracks which registers transitively hold a value derived from
the *trigger* instruction's destination register:

* when the trigger executes, the vector is cleared and the trigger's
  destination bit is set;
* for every subsequent instruction, the destination bit is set iff any
  source bit is set;
* the walk stops when the trigger is encountered again.

Any **load** observed with a tainted address register during the walk is a
candidate dependent load: if the walk reaches the trigger again and the
candidate's address tracked the trigger's *value* at a constant offset,
the pair forms the array-of-pointers pattern.  If the trigger's own
address register is tainted when it re-executes, the trigger forms the
pointer-chain pattern.
"""

from __future__ import annotations

from repro.isa.instructions import OpClass
from repro.isa.trace import TraceRecord


class TaintUnit:
    """One-trigger-at-a-time register taint tracker."""

    def __init__(self) -> None:
        self.trigger_pc: int | None = None
        self.armed = False
        """True exactly while ``trigger_pc`` is set: P1's instruction-feed
        gate (:attr:`repro.core.base.Prefetcher.feed_gate`)."""
        self._vector = 0
        self._active = False
        self.tainted_loads: list[int] = []   # PCs of tainted loads this walk
        self.completed_loads: list[int] = []  # snapshot of the last walk
        self.trigger_self_dependent = False

    def reset(self) -> None:
        self.trigger_pc = None
        self.armed = False
        self._vector = 0
        self._active = False
        self.tainted_loads = []
        self.completed_loads = []
        self.trigger_self_dependent = False

    # ------------------------------------------------------------------
    def arm(self, trigger_pc: int) -> None:
        """Start (or restart) watching dependents of ``trigger_pc``."""
        self.trigger_pc = trigger_pc
        self.armed = True
        self._vector = 0
        self._active = False
        self.tainted_loads = []
        self.completed_loads = []
        self.trigger_self_dependent = False

    def disarm(self) -> None:
        """Stop watching: no trigger until the next :meth:`arm`."""
        self.trigger_pc = None
        self.armed = False

    def is_tainted(self, register: int) -> bool:
        return register >= 0 and bool(self._vector & (1 << register))

    def observe(self, record: TraceRecord) -> bool:
        """Feed one retired instruction.

        Returns True when the walk completed (the trigger re-executed),
        at which point ``tainted_loads`` and ``trigger_self_dependent``
        describe what was found.
        """
        if not self.armed:
            return False

        if record.pc == self.trigger_pc:
            if self._active:
                # Walk complete: check self-dependence before restarting.
                self.trigger_self_dependent = self.is_tainted(record.src1)
                completed = True
            else:
                completed = False
            # (Re)start the walk: only the trigger's destination is tainted.
            self._vector = 1 << record.dst if record.dst >= 0 else 0
            self._active = True
            self.completed_loads = self.tainted_loads
            self.tainted_loads = []
            return completed

        if not self._active:
            return False

        tainted = (
            self.is_tainted(record.src1) or self.is_tainted(record.src2)
        )
        if record.opc == OpClass.LOAD:
            if self.is_tainted(record.src1):
                self.tainted_loads.append(record.pc)
        if record.dst >= 0:
            if tainted:
                self._vector |= 1 << record.dst
            else:
                self._vector &= ~(1 << record.dst)
        return False

    @property
    def storage_bits(self) -> int:
        return 64  # Table II: TPU (64 bits)
