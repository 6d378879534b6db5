"""Composite prefetchers: TPC and friends (paper Sec. IV, Fig. 7).

:class:`CompositePrefetcher` glues components together through the
:class:`~repro.core.coordinator.Coordinator` (division of labor).
:class:`ShuntPrefetcher` is the paper's contrast configuration
(Sec. V-C3): the same components running *unaware of each other*, every
access offered to everyone, all requests issued.

``make_tpc()`` builds the paper's proof-of-concept composite:
T2 (strided streams, -> L1), P1 (pointer patterns, -> L1), and C1 (dense
regions, -> L2), with T2's prefetch distance doubled for P1's confirmed
strided-pointer triggers.  Extra monolithic components can be appended
with ``extras=[...]`` (Sec. IV-E / Fig. 14 / Fig. 15).

Both wrappers forward ``observe_instruction`` to their components on
every instruction, which is what the generic loop calls.  The replay
kernels call the components directly instead: :func:`instruction_feeds`
lists the leaf feeds behind a core's hook, in call order, each with its
component's declared rows and gate, so a TPC or shunt cell calls T2
only on taken backward branches and P1 only while its taint walk is
armed.
"""

from __future__ import annotations

from repro.core.base import AccessEvent, Prefetcher, PrefetchRequest
from repro.core.c1 import C1Prefetcher
from repro.core.coordinator import Coordinator
from repro.core.p1 import P1Prefetcher
from repro.core.t2 import T2Prefetcher


class CompositePrefetcher(Prefetcher):
    """Division-of-labor composite of prefetcher components."""

    needs_instruction_stream = True
    wants_memory_image = True

    def __init__(self, components: list[Prefetcher],
                 extras: list[Prefetcher] | None = None,
                 name: str = "composite") -> None:
        self.name = name
        self.components = components
        self.extras = list(extras) if extras else []
        self.coordinator = Coordinator(components, self.extras)
        self._all = components + self.extras
        # Per-event hooks are forwarded only to components that actually
        # override them: most are the base no-op, and skipping them (plus
        # the list concat per event) is a measurable hot-loop win.
        base = Prefetcher
        self._instruction_feeds = [
            p.observe_instruction for p in self._all
            if p.needs_instruction_stream
            and type(p).observe_instruction is not base.observe_instruction
        ]
        self._access_observers = [
            p.observe_access for p in self._all
            if type(p).observe_access is not base.observe_access
        ]
        self._fill_hooks = [
            p.on_fill for p in self._all
            if type(p).on_fill is not base.on_fill
        ]
        self._prefetch_hit_hooks = [
            p.on_prefetch_hit for p in self._all
            if type(p).on_prefetch_hit is not base.on_prefetch_hit
        ]
        # When exactly one component consumes a hook, shadow the class
        # forwarder with the component's bound method directly; when none
        # does, shadow it with the base no-op so the core's hook binding
        # sees "nothing to call" and skips the event entirely.  The core
        # binds these once per simulation, so the per-event wrapper call
        # disappears (TPC: only C1 observes every access, and no
        # component consumes fills or prefetch hits).
        self._flatten(self._instruction_feeds, "observe_instruction")
        self._flatten(self._access_observers, "observe_access")
        self._flatten(self._fill_hooks, "on_fill")
        self._flatten(self._prefetch_hit_hooks, "on_prefetch_hit")

    def _flatten(self, hooks: list, attr: str) -> None:
        if len(hooks) == 1:
            setattr(self, attr, hooks[0])
        elif not hooks:
            setattr(self, attr, getattr(Prefetcher, attr).__get__(self))

    def reset(self) -> None:
        for prefetcher in self._all:
            prefetcher.reset()
        self.coordinator.reset()
        self._wire_components()

    def _wire_components(self) -> None:
        """Cross-component knowledge: T2 doubles the distance for P1's
        strided-pointer triggers (paper Sec. IV-B-1)."""
        t2 = next((c for c in self.components if isinstance(c, T2Prefetcher)),
                  None)
        p1 = next((c for c in self.components if isinstance(c, P1Prefetcher)),
                  None)
        if t2 is not None and p1 is not None:
            t2.boosted_pcs = p1.pointer_trigger_pcs

    def set_memory(self, memory: dict[int, int]) -> None:
        for prefetcher in self._all:
            if prefetcher.wants_memory_image:
                prefetcher.set_memory(memory)

    def observe_instruction(self, record, cycle: int) -> None:
        for observe in self._instruction_feeds:
            observe(record, cycle)

    def observe_access(self, event: AccessEvent) -> None:
        for observe in self._access_observers:
            observe(event)

    def on_access(self, event: AccessEvent):
        return self.coordinator.route(event)

    def on_fill(self, line: int, level: int,
                prefetched: bool = False) -> None:
        for hook in self._fill_hooks:
            hook(line, level, prefetched)

    def on_prefetch_hit(self, line: int, level: int) -> None:
        for hook in self._prefetch_hit_hooks:
            hook(line, level)

    def claims(self, pc: int) -> bool:
        return self.coordinator.claims(pc)

    @property
    def storage_bits(self) -> int:
        return sum(
            p.storage_bits for p in self._all
        ) + self.coordinator.storage_bits


class ShuntPrefetcher(Prefetcher):
    """Multiple prefetchers working in parallel, unaware of each other.

    The paper's Sec. V-C3 contrast: "they both increase prefetching scope,
    [but shunting] has overlapping efforts instead of a division of
    labor."  Every component sees every access and all requests are
    issued.
    """

    needs_instruction_stream = True
    wants_memory_image = True

    def __init__(self, prefetchers: list[Prefetcher],
                 name: str = "shunt") -> None:
        self.name = name
        self.prefetchers = prefetchers

    def reset(self) -> None:
        for prefetcher in self.prefetchers:
            prefetcher.reset()

    def set_memory(self, memory: dict[int, int]) -> None:
        for prefetcher in self.prefetchers:
            if prefetcher.wants_memory_image:
                prefetcher.set_memory(memory)

    def observe_instruction(self, record, cycle: int) -> None:
        for prefetcher in self.prefetchers:
            if prefetcher.needs_instruction_stream:
                prefetcher.observe_instruction(record, cycle)

    def observe_access(self, event: AccessEvent) -> None:
        for prefetcher in self.prefetchers:
            prefetcher.observe_access(event)

    def on_access(self, event: AccessEvent):
        requests: list[PrefetchRequest] = []
        for prefetcher in self.prefetchers:
            result = prefetcher.on_access(event)
            if result:
                requests.extend(result)
        return requests or None

    def on_fill(self, line: int, level: int,
                prefetched: bool = False) -> None:
        for prefetcher in self.prefetchers:
            prefetcher.on_fill(line, level, prefetched)

    def on_prefetch_hit(self, line: int, level: int) -> None:
        for prefetcher in self.prefetchers:
            prefetcher.on_prefetch_hit(line, level)

    @property
    def storage_bits(self) -> int:
        return sum(p.storage_bits for p in self.prefetchers)


def instruction_feeds(hook) -> list[tuple]:
    """The leaf instruction feeds behind ``hook``, in call order.

    ``hook`` is what a core calls per instruction (its bound
    ``observe_instruction``).  A composite's or shunt's forwarder
    expands into its components' feeds, recursively; components whose
    hook is the base no-op drop out.  Any other hook is one leaf, called
    exactly as the generic loop calls it.  Each feed is ``(observe,
    rows, gate)``: the bound hook and its owner's ``feed_rows`` and
    ``feed_gate`` (:class:`~repro.core.base.Prefetcher`), so an owner
    that declares nothing is fed every instruction.
    """
    func = getattr(hook, "__func__", None)
    owner = getattr(hook, "__self__", None)
    if func is CompositePrefetcher.observe_instruction:
        hooks = owner._instruction_feeds
    elif func is ShuntPrefetcher.observe_instruction:
        hooks = [p.observe_instruction for p in owner.prefetchers
                 if p.needs_instruction_stream]
    elif func is Prefetcher.observe_instruction:
        return []
    else:
        return [(hook, _declared(owner, "feed_rows"),
                 _declared(owner, "feed_gate"))]
    return [feed for leaf in hooks for feed in instruction_feeds(leaf)]


def _declared(owner, attr: str):
    """``owner``'s feed declaration ``attr``, or ``None`` when the class
    whose ``observe_instruction`` it runs did not make (or inherit) it:
    a subclass that overrides the hook but not the declaration is fed
    every instruction, always."""
    if attr in getattr(owner, "__dict__", ()):
        return getattr(owner, attr)
    mro = type(owner).__mro__
    hook_cls = next((c for c in mro if "observe_instruction" in c.__dict__),
                    None)
    decl_cls = next((c for c in mro if attr in c.__dict__), None)
    if hook_cls is None or decl_cls is None \
            or not issubclass(decl_cls, hook_cls):
        return None
    return getattr(owner, attr)


def make_tpc(extras: list[Prefetcher] | None = None,
             t2_kwargs: dict | None = None,
             p1_kwargs: dict | None = None,
             c1_kwargs: dict | None = None,
             components: str = "tpc",
             boost_pointer_triggers: bool = True,
             name: str | None = None) -> CompositePrefetcher:
    """Build the paper's TPC composite (or a prefix of it).

    ``components`` selects which components to enable: ``"t"`` (T2 only),
    ``"tp"`` (T2+P1), or ``"tpc"`` (full TPC) — used by the Fig. 12
    incremental experiment.  ``boost_pointer_triggers=False`` disables the
    distance-doubling cross-wire (an ablation knob).
    """
    if components not in ("t", "tp", "tpc"):
        raise ValueError(f"components must be 't', 'tp', or 'tpc', "
                         f"got {components!r}")
    parts: list[Prefetcher] = [T2Prefetcher(**(t2_kwargs or {}))]
    if "p" in components:
        parts.append(P1Prefetcher(**(p1_kwargs or {})))
    if components.endswith("c"):
        parts.append(C1Prefetcher(**(c1_kwargs or {})))
    if name is None:
        name = "tpc" if components == "tpc" else components
        if extras:
            name += "+" + "+".join(p.name for p in extras)
    composite = CompositePrefetcher(parts, extras=extras, name=name)
    if not boost_pointer_triggers:
        composite._wire_components = lambda: None  # ablation: no cross-wire
    composite._wire_components()
    return composite


def make_shunt(extras: list[Prefetcher], name: str | None = None
               ) -> ShuntPrefetcher:
    """TPC shunted (not composited) with extra prefetchers (Fig. 15)."""
    tpc = make_tpc()
    if name is None:
        name = "shunt:tpc+" + "+".join(p.name for p in extras)
    return ShuntPrefetcher([tpc] + list(extras), name=name)
