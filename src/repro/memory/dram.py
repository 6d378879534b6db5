"""DDR3-style DRAM model with banks, row buffers, and a bounded queue.

Timing parameters follow Table I of the paper (DDR3-1600, 2 channels,
2 ranks/channel, 8 banks/rank, tRCD = tRP = 13.75 ns, tRAS = 35 ns) with
the core clock at 3 GHz (1 ns = 3 cycles).

The model is analytical rather than event-driven: each bank keeps its open
row and the cycle at which it can accept the next request; each channel
keeps a bounded in-flight queue.  This captures what the paper's
experiments need — row-buffer locality, bank-level parallelism, queueing
delay under prefetch pressure, and the memory-controller prefetch-drop
policy of Sec. V-C1.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.telemetry import events as ev


class DropPolicy(enum.Enum):
    """What the controller does when the queue is full and a prefetch
    arrives (Sec. V-C1)."""

    RANDOM = "random"
    """Drop a uniformly random prefetch among queued + incoming."""

    LOW_PRIORITY_FIRST = "low_priority_first"
    """Prefer dropping low-confidence prefetches (C1's in the paper)."""


LOW_PRIORITY_COMPONENTS = frozenset({"C1"})
"""Prefetch component tags the controller treats as low probability."""


@dataclass(slots=True)
class DramStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_empty: int = 0
    row_conflicts: int = 0
    dropped_prefetches: int = 0
    demand_queue_stalls: int = 0

    @property
    def total_traffic(self) -> int:
        """Lines transferred over the memory channels."""
        return self.reads + self.writes


@dataclass(slots=True)
class _QueueEntry:
    completion: int
    is_prefetch: bool
    component: str | None


@dataclass
class DramConfig:
    """Timing/geometry knobs, defaults from Table I at 3 GHz."""

    channels: int = 2
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    lines_per_row: int = 32          # 2 KB row of 64 B lines
    t_rcd: int = 41                  # 13.75 ns
    t_rp: int = 41                   # 13.75 ns
    t_cas: int = 41
    burst: int = 15                  # 64 B @ 12.8 GB/s per channel = 5 ns
    queue_capacity: int = 32         # per channel
    drop_policy: DropPolicy = DropPolicy.RANDOM
    seed: int = 0x5EED


class Dram:
    """The memory controller + DRAM devices for one system."""

    __slots__ = (
        "config",
        "stats",
        "telemetry",
        "_num_banks",
        "_banks_per_channel",
        "_bank_ready",
        "_bank_row",
        "_bus_free",
        "_queues",
        "_queue_min",
        "_rng",
    )

    _NO_PENDING = 1 << 62

    def __init__(self, config: DramConfig | None = None) -> None:
        self.config = config or DramConfig()
        cfg = self.config
        self.stats = DramStats()
        self._num_banks = cfg.channels * cfg.ranks_per_channel * cfg.banks_per_rank
        self._banks_per_channel = cfg.ranks_per_channel * cfg.banks_per_rank
        self._bank_ready = [0] * self._num_banks
        self._bank_row: list[int | None] = [None] * self._num_banks
        self._bus_free = [0] * cfg.channels
        self._queues: list[list[_QueueEntry]] = [[] for _ in range(cfg.channels)]
        self._queue_min = [self._NO_PENDING] * cfg.channels
        self._rng = random.Random(cfg.seed)
        self.telemetry = None
        """Optional telemetry hub; emits controller-internal lifecycle
        events (queue stalls, queued-victim drops) that the hierarchy
        cannot observe.  ``None`` keeps the seed code path."""

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def _map(self, line_addr: int) -> tuple[int, int, int]:
        """line address -> (channel, global bank index, row)."""
        cfg = self.config
        channel = line_addr % cfg.channels
        rest = line_addr // cfg.channels
        bank_in_channel = rest % self._banks_per_channel
        row = rest // (self._banks_per_channel * cfg.lines_per_row)
        bank = channel * self._banks_per_channel + bank_in_channel
        return channel, bank, row

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def _drain(self, channel: int, now: int) -> None:
        """Drop queue entries whose fill already finished.

        Same lazy scheme as ``_MshrFile``: the earliest completion per
        channel is cached, so the common no-expiry case is a single
        comparison instead of a list rebuild.  A stale (too small)
        cached minimum only causes a redundant rebuild, never a missed
        one — pruning timing is unchanged."""
        if self._queue_min[channel] <= now:
            queue = self._queues[channel]
            queue[:] = [entry for entry in queue if entry.completion > now]
            self._queue_min[channel] = min(
                (entry.completion for entry in queue),
                default=self._NO_PENDING,
            )

    def _admit(self, channel: int, now: int, is_prefetch: bool,
               component: str | None) -> tuple[int, bool]:
        """Apply queue capacity.  Returns (earliest start cycle, admitted).

        Demands never get rejected; they stall until a slot frees up.
        Prefetches may be dropped according to the drop policy.
        """
        self._drain(channel, now)
        queue = self._queues[channel]
        capacity = self.config.queue_capacity
        policy = self.config.drop_policy
        if len(queue) < capacity:
            return now, True

        if not is_prefetch:
            # Stall the demand until the earliest queued request completes.
            earliest = min(entry.completion for entry in queue)
            self.stats.demand_queue_stalls += 1
            if self.telemetry is not None:
                self.telemetry.emit(ev.DRAM_QUEUE_STALL, now,
                                    dur=earliest - now)
            self._drain(channel, earliest)
            return earliest, True

        # Queue full, incoming prefetch: pick a victim to drop.
        queued_prefetches = [e for e in queue if e.is_prefetch]
        if policy is DropPolicy.LOW_PRIORITY_FIRST:
            low = [
                e for e in queued_prefetches
                if e.component in LOW_PRIORITY_COMPONENTS
            ]
            if component in LOW_PRIORITY_COMPONENTS:
                # Incoming is itself low priority: drop it.
                self.stats.dropped_prefetches += 1
                return now, False
            if low:
                victim = low[0]
                queue.remove(victim)
                self.stats.dropped_prefetches += 1
                if self.telemetry is not None:
                    self.telemetry.emit(ev.DRAM_DROP_VICTIM, now,
                                        component=victim.component)
                return now, True
            self.stats.dropped_prefetches += 1
            return now, False

        # RANDOM: the controller sheds prefetch load indiscriminately.
        # In this analytical model only the *incoming* request can truly
        # be dropped (a queued request's bank timing is already
        # committed), so the random policy drops every prefetch that
        # arrives at a full queue — the shed composition matches the
        # arrival mix, which is what "drops prefetches randomly" means at
        # the aggregate level.
        self.stats.dropped_prefetches += 1
        return now, False

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def read(self, line_addr: int, now: int, is_prefetch: bool = False,
             component: str | None = None) -> int | None:
        """Read one line.  Returns the completion cycle, or ``None`` if the
        request was a prefetch that the controller dropped."""
        channel, bank, row = self._map(line_addr)
        start, admitted = self._admit(channel, now, is_prefetch, component)
        if not admitted:
            return None

        cfg = self.config
        start = max(start, self._bank_ready[bank])
        open_row = self._bank_row[bank]
        if open_row == row:
            access = cfg.t_cas
            self.stats.row_hits += 1
        elif open_row is None:
            access = cfg.t_rcd + cfg.t_cas
            self.stats.row_empty += 1
        else:
            access = cfg.t_rp + cfg.t_rcd + cfg.t_cas
            self.stats.row_conflicts += 1

        data_start = max(start + access, self._bus_free[channel])
        completion = data_start + cfg.burst
        self._bank_row[bank] = row
        self._bank_ready[bank] = data_start
        self._bus_free[channel] = completion
        self._queues[channel].append(
            _QueueEntry(completion, is_prefetch, component)
        )
        if completion < self._queue_min[channel]:
            self._queue_min[channel] = completion
        self.stats.reads += 1
        return completion

    def write(self, line_addr: int, now: int) -> None:
        """Writeback of one line; fire-and-forget for the caller."""
        channel, bank, row = self._map(line_addr)
        # Writebacks are not dropped; they use spare queue slots lazily and
        # are not modeled as stalling the core (write buffers absorb them).
        cfg = self.config
        start = max(now, self._bank_ready[bank])
        open_row = self._bank_row[bank]
        if open_row == row:
            access = cfg.t_cas
            self.stats.row_hits += 1
        elif open_row is None:
            access = cfg.t_rcd
            self.stats.row_empty += 1
        else:
            access = cfg.t_rp + cfg.t_rcd
            self.stats.row_conflicts += 1
        data_start = max(start + access, self._bus_free[channel])
        completion = data_start + cfg.burst
        self._bank_row[bank] = row
        self._bank_ready[bank] = data_start
        self._bus_free[channel] = completion
        self.stats.writes += 1

    def queue_occupancy(self, channel: int, now: int) -> int:
        """Pending requests on ``channel`` at cycle ``now``.  Counts
        without pruning, so a read at a late cycle (the sampler reads at
        the latest commit) hides no entry from a request that issues
        earlier."""
        return sum(1 for entry in self._queues[channel]
                   if entry.completion > now)

    def queue_depth(self, now: int) -> int:
        """Pending requests across all channels (telemetry sampling)."""
        return sum(
            self.queue_occupancy(channel, now)
            for channel in range(self.config.channels)
        )
