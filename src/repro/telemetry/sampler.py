"""Time-series sampling: phase-resolved system state every N instructions.

The whole-run aggregates answer *whether* a prefetcher won; the sampler
answers *when* — warmup, phase changes, queue-pressure episodes.  Every
``interval`` retired instructions it snapshots:

* window IPC (instructions / cycles within the window),
* window L1/L2 MPKI (demand misses per kilo-instruction),
* instantaneous L1/L2 MSHR occupancy and DRAM queue depth,
* window prefetch issue/first-use counts and per-component accuracy
  (derived from the telemetry hub's ``issued.<c>`` / ``first_use.<c>``
  counters, the same stream :mod:`repro.analysis.windows` consumes).

The sampler is bound by :meth:`repro.engine.ooo.OoOCore.attach_telemetry`
and driven once per retired instruction by the generic loop (a core
with a sampler runs no specialized kernel).  It only reads state, and
its MSHR and DRAM-queue reads count in-flight entries without pruning
them, so a sampled run reports exactly the figures of an unsampled one.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Sample:
    """One row of the time series (cumulative positions, window rates)."""

    index: int
    instructions: int          # cumulative retired instructions
    cycle: int                 # core commit cycle at sample time
    ipc: float                 # window IPC
    l1_mpki: float             # window L1 demand MPKI
    l2_mpki: float             # window L2 demand MPKI
    mshr_l1: int               # instantaneous occupancy
    mshr_l2: int
    dram_queue: int            # instantaneous depth, all channels
    issued: int                # window prefetch issues
    first_uses: int            # window prefetch first uses
    component_accuracy: dict[str, float] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        """Window-level used/issued across all components."""
        return self.first_uses / self.issued if self.issued else 0.0

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "instructions": self.instructions,
            "cycle": self.cycle,
            "ipc": round(self.ipc, 4),
            "l1_mpki": round(self.l1_mpki, 3),
            "l2_mpki": round(self.l2_mpki, 3),
            "mshr_l1": self.mshr_l1,
            "mshr_l2": self.mshr_l2,
            "dram_queue": self.dram_queue,
            "issued": self.issued,
            "first_uses": self.first_uses,
            "component_accuracy": {
                k: round(v, 4) for k, v in self.component_accuracy.items()
            },
        }


class TimeSeriesSampler:
    """Samples core + hierarchy + telemetry state every N instructions."""

    def __init__(self, interval: int = 8192) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval}")
        self.interval = interval
        self.samples: list[Sample] = []
        self._core = None
        self._hierarchy = None
        self._telemetry = None
        self._pending = 0
        # Window baselines (previous sample's cumulative values).
        self._prev_instructions = 0
        self._prev_cycle = 0
        self._prev_l1_misses = 0
        self._prev_l2_misses = 0
        self._prev_counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    def bind(self, core, hierarchy, telemetry) -> None:
        """Attach to one run; called by ``OoOCore.attach_telemetry``."""
        self._core = core
        self._hierarchy = hierarchy
        self._telemetry = telemetry
        self._pending = 0
        self._prev_instructions = core.stats.instructions
        self._prev_cycle = core.stats.cycles
        self._prev_l1_misses = hierarchy.l1d.stats.demand_misses
        self._prev_l2_misses = hierarchy.l2.stats.demand_misses
        self._prev_counters = dict(telemetry.counters)

    def on_instruction(self) -> None:
        """Hot-path hook: one retired instruction."""
        self._pending += 1
        if self._pending >= self.interval:
            self._pending = 0
            self._take_sample()

    # ------------------------------------------------------------------
    def _take_sample(self) -> None:
        core, hierarchy = self._core, self._hierarchy
        stats = core.stats
        now = stats.cycles
        instructions = stats.instructions
        d_instr = instructions - self._prev_instructions
        d_cycle = now - self._prev_cycle
        d_l1 = hierarchy.l1d.stats.demand_misses - self._prev_l1_misses
        d_l2 = hierarchy.l2.stats.demand_misses - self._prev_l2_misses

        counters = self._telemetry.counters
        prev = self._prev_counters

        def delta(name: str) -> int:
            return counters.get(name, 0) - prev.get(name, 0)

        accuracy = {}
        for component in self._telemetry.components():
            issued_c = delta("issued." + component)
            if issued_c:
                accuracy[component] = (
                    delta("first_use." + component) / issued_c
                )

        self.samples.append(Sample(
            index=len(self.samples),
            instructions=instructions,
            cycle=now,
            ipc=d_instr / d_cycle if d_cycle else 0.0,
            l1_mpki=1000.0 * d_l1 / d_instr if d_instr else 0.0,
            l2_mpki=1000.0 * d_l2 / d_instr if d_instr else 0.0,
            mshr_l1=hierarchy.mshr_occupancy(1, now),
            mshr_l2=hierarchy.mshr_occupancy(2, now),
            dram_queue=hierarchy.dram.queue_depth(now),
            issued=delta("issued"),
            first_uses=delta("first_use"),
            component_accuracy=accuracy,
        ))
        self._prev_instructions = instructions
        self._prev_cycle = now
        self._prev_l1_misses = hierarchy.l1d.stats.demand_misses
        self._prev_l2_misses = hierarchy.l2.stats.demand_misses
        self._prev_counters = dict(counters)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def series(self, metric: str) -> list[tuple[float, float]]:
        """(instructions, value) points for one Sample field/property."""
        return [
            (float(s.instructions), float(getattr(s, metric)))
            for s in self.samples
        ]

    def to_svg(self, metrics: tuple[str, ...] = ("ipc", "l1_mpki", "accuracy"),
               title: str = "time series") -> str:
        """Render selected metrics as an SVG line chart."""
        from repro.analysis.svgplot import lines_svg

        return lines_svg(
            {metric: self.series(metric) for metric in metrics},
            title=title, x_label="instructions", y_label="value",
        )

    def as_dicts(self) -> list[dict]:
        return [sample.as_dict() for sample in self.samples]
