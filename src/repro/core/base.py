"""Prefetcher component protocol.

Every prefetcher — the paper's T2/P1/C1 components, the composite, and the
monolithic baselines — implements the same small interface so the timing
engine, the coordinator, and the experiment harness can treat them
uniformly:

``observe_instruction(record, cycle)``
    Called for every retired instruction when
    ``needs_instruction_stream`` is true.  This is how T2's loop hardware
    sees branches and how P1's taint unit sees register dataflow.  The
    monolithic baselines leave it off — they only watch the memory access
    stream, as their hardware does.  A component may declare where the
    hook can act (``feed_rows``, ``feed_gate``); the replay kernels then
    call it only there, while the generic loop still calls it on every
    instruction.

``on_access(event)``
    Called for every demand L1D access with its outcome; returns the
    prefetch requests to issue (or ``None``).

``on_fill(line, level)``
    Fill notification (BOP trains its recent-requests table on fills).

Components additionally report ``storage_bits`` for Table II and may
``claims(pc)`` a static instruction so the coordinator can divide labor.
"""

from __future__ import annotations

from repro.isa.trace import TraceRecord


class PrefetchRequest:
    """One line the prefetcher wants, and where to put it."""

    __slots__ = ("line", "target_level", "component")

    def __init__(self, line: int, target_level: int = 1,
                 component: str | None = None) -> None:
        self.line = line
        self.target_level = target_level
        self.component = component

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrefetchRequest(line={self.line:#x}, L{self.target_level}, "
            f"{self.component})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrefetchRequest)
            and self.line == other.line
            and self.target_level == other.target_level
            and self.component == other.component
        )

    def __hash__(self) -> int:
        return hash((self.line, self.target_level, self.component))


class AccessEvent:
    """A demand L1D access as seen by the prefetcher.

    ``mpc`` is the call-site-disambiguated PC (``pc ^ ras_top``) that T2's
    SIT is indexed with; ``latency`` is the observed load-to-use latency in
    cycles (T2's AMAT input); ``value`` is the loaded word (P1's pointer
    patterns); ``primary_miss`` distinguishes the miss that activates T2
    tracking from ordinary hits.

    An event is valid only during the hook call it is passed to: each
    replay (the generic loop and the segmented kernels alike) refills
    one event at every access.  A hook that needs a field later copies
    the field; it never keeps the event.
    """

    __slots__ = (
        "cycle",
        "pc",
        "mpc",
        "addr",
        "line",
        "is_load",
        "hit",
        "primary_miss",
        "served_by_prefetch",
        "serving_component",
        "latency",
        "value",
        "dst",
    )

    def __init__(self, cycle: int, pc: int, mpc: int, addr: int, line: int,
                 is_load: bool, hit: bool, primary_miss: bool,
                 latency: int, value: int, dst: int,
                 served_by_prefetch: bool = False,
                 serving_component: str | None = None) -> None:
        self.cycle = cycle
        self.pc = pc
        self.mpc = mpc
        self.addr = addr
        self.line = line
        self.is_load = is_load
        self.hit = hit
        self.primary_miss = primary_miss
        self.served_by_prefetch = served_by_prefetch
        self.serving_component = serving_component
        self.latency = latency
        self.value = value
        self.dst = dst


class Prefetcher:
    """Base class; the default implementation never prefetches."""

    name = "none"
    needs_instruction_stream = False
    wants_memory_image = False
    always_observe = False
    """Composite routing: when True, this component keeps observing
    accesses even after a higher-priority component claimed the
    instruction.  T2 and P1 share stride knowledge this way (the paper's
    "expanded SIT"): P1 must see the strided trigger's values although T2
    owns its stride prefetching."""
    feed_rows: str | None = None
    """The retired instructions :meth:`observe_instruction` can act on,
    as a row set the trace fixes: ``None`` for every one, or
    :data:`repro.isa.trace.BACKWARD_TAKEN`, the taken backward branches
    (T2's declaration, the exact test its hook makes)."""
    feed_gate = None
    """``None``, or an object whose ``armed`` attribute is false whenever
    :meth:`observe_instruction` would do nothing.  The component may
    flip it only inside its own hooks; a kernel tests it, without a
    call, before each instruction it would feed.  P1's gate is its
    taint unit (armed while a taint walk is)."""

    def set_memory(self, memory: dict[int, int]) -> None:
        """Give the prefetcher read access to the data image.

        Pointer prefetchers dereference memory: in hardware the value
        arrives with the prefetched line itself; in this trace-driven model
        the engine hands the prefetcher the program's memory image instead
        (see DESIGN.md fidelity notes).
        """

    def observe_instruction(self, record: TraceRecord, cycle: int) -> None:
        """See one retired instruction (loop/taint hardware hook)."""

    def observe_access(self, event: AccessEvent) -> None:
        """Passive monitoring of *every* demand access.

        Unlike :meth:`on_access`, this fires even for accesses the
        coordinator routed to another component — e.g. C1's region monitor
        tracks spatial density of all accesses (paper: "on every cache
        access ... the corresponding bit is set") although C1 only
        *handles* unclaimed instructions.
        """

    def on_access(self, event: AccessEvent) -> list[PrefetchRequest] | None:
        """See one demand access; return prefetch requests (or ``None``)."""
        return None

    def on_fill(self, line: int, level: int,
                prefetched: bool = False) -> None:
        """A fill completed at ``level``.

        ``prefetched`` distinguishes prefetch completions (BOP inserts
        ``line - D`` into its recent-requests table on those) from demand
        fills.
        """

    def on_prefetch_hit(self, line: int, level: int) -> None:
        """A demand access first-used a line this prefetcher brought in.

        Feedback-driven designs (FDP's accuracy counters, BOP's
        prefetch-hit training) rely on this notification; real hardware
        gets it from the prefetch bit in the cache line.
        """

    def claims(self, pc: int) -> bool:
        """True if this component has taken ownership of instruction ``pc``.

        Used by the coordinator for division of labor: accesses from a
        claimed PC are not offered to lower-priority components.
        """
        return False

    @property
    def component_tag(self) -> str:
        """The tag this prefetcher stamps on its requests.

        T2/P1/C1 tag requests with "T2"/"P1"/"C1" while their registry
        names are lowercase; telemetry joins events by this tag, so it
        must match ``PrefetchRequest.component``.  Defaults to ``name``.
        """
        return self.name

    @property
    def storage_bits(self) -> int:
        """Hardware storage cost in bits (Table II)."""
        return 0

    def reset(self) -> None:
        """Clear learned state (fresh run)."""


class NullPrefetcher(Prefetcher):
    """Explicit no-prefetch baseline."""

    name = "none"
