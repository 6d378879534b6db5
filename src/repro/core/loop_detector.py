"""T2's loop hardware (paper Sec. IV-A-1, Fig. 3-a).

The loop hardware identifies *inner* loops by watching for back-to-back
instances of the same backward branch:

* a single **loop-branch register** (LR) holds the PC and target of the
  most recent backward branch candidate;
* when a newly encountered backward branch matches the LR, the loop is
  identified and each subsequent match marks an iteration boundary;
* backward branches that repeatedly displace the LR without ever matching
  are remembered in the **non-loop PC table** (NLPCT) and skipped, which
  shortens the time to lock onto a stable loop.

Besides the loop identity, the hardware tracks the execution time per
iteration (``T_iter``, see :attr:`LoopDetector.iteration_time`), which
T2's prefetch-distance formula ``d = (AMAT + m) / T_iter`` consumes.
"""

from __future__ import annotations


class LoopDetector:
    """Loop-branch register + NLPCT + iteration timing."""

    def __init__(self, nlpct_entries: int = 16,
                 nlpct_strike_limit: int = 2) -> None:
        self.nlpct_entries = nlpct_entries
        self.nlpct_strike_limit = nlpct_strike_limit
        self._lr_pc: int | None = None
        self._lr_target: int | None = None
        self._lr_confirmed = False
        self._nlpct: dict[int, None] = {}
        self._strikes: dict[int, int] = {}
        self._last_iteration_cycle: int | None = None
        self._iteration_time_fast: float = 0.0
        self.loop_pc: int | None = None
        self.iterations = 0

    def reset(self) -> None:
        self.__init__(self.nlpct_entries, self.nlpct_strike_limit)

    # ------------------------------------------------------------------
    @property
    def in_loop(self) -> bool:
        """True once a loop branch has been confirmed and is still live."""
        return self.loop_pc is not None

    @property
    def iteration_time(self) -> float:
        """Cycles per iteration of the current loop (0 if unknown).

        This is the *fast* (near-minimum) estimate: memory stalls inflate
        the average iteration time, and a prefetch distance computed from
        the stalled pace under-provisions for the pace the loop reaches
        once prefetching works.  The estimate drifts upward slowly so
        phase changes are still tracked.
        """
        return self._iteration_time_fast if self.in_loop else 0.0

    def is_non_loop(self, pc: int) -> bool:
        return pc in self._nlpct

    # ------------------------------------------------------------------
    def observe_backward_branch(self, pc: int, target_pc: int,
                                cycle: int) -> bool:
        """Feed one *taken backward* branch; returns True at an iteration
        boundary of the identified loop."""
        if pc in self._nlpct:
            return False
        lr_pc = self._lr_pc

        if lr_pc == pc and self._lr_target == target_pc:
            # Back-to-back instance: the loop is identified.
            self._lr_confirmed = True
            self.loop_pc = pc
            if self._strikes:
                self._strikes.pop(pc, None)
            last = self._last_iteration_cycle
            if last is not None:
                delta = cycle - last
                fast = self._iteration_time_fast
                if fast == 0.0 or delta <= fast:
                    self._iteration_time_fast = float(delta)
                else:
                    self._iteration_time_fast = fast + 0.02 * (delta - fast)
            self._last_iteration_cycle = cycle
            self.iterations += 1
            return True

        # A different backward branch displaces the LR.
        if lr_pc is not None:
            if self._lr_confirmed:
                # Leaving a confirmed loop: clear loop context.
                self.loop_pc = None
            else:
                strikes = self._strikes.get(lr_pc, 0) + 1
                if strikes >= self.nlpct_strike_limit:
                    self._insert_nlpct(lr_pc)
                    self._strikes.pop(lr_pc, None)
                else:
                    self._strikes[lr_pc] = strikes
        self._lr_pc = pc
        self._lr_target = target_pc
        self._lr_confirmed = False
        self._last_iteration_cycle = cycle
        return False

    def _insert_nlpct(self, pc: int) -> None:
        if len(self._nlpct) >= self.nlpct_entries:
            self._nlpct.pop(next(iter(self._nlpct)))
        self._nlpct[pc] = None

    @property
    def storage_bits(self) -> int:
        # LR (2 x 32b) + NLPCT (16 x 32b PC) per Table II's "LH" budget.
        return 64 + self.nlpct_entries * 32
