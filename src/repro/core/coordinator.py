"""The coordinator (paper Sec. IV-D and IV-E).

The coordinator is hardwired decision logic, not a learned structure: it
presents each memory instruction to the specialized components in priority
order (T2 first, then P1, then C1 — "since T2 targets more cases").  An
instruction *claimed* by a component is never offered further down, which
is the division of labor: each component only spends capacity on accesses
no higher-priority expert already owns.

Destination policy (Sec. IV-D): T2 and P1 prefetch into L1 (their accuracy
warrants it); C1 into L2.

Existing monolithic prefetchers can be appended as *extra* components
(Sec. IV-E).  They only see accesses from instructions none of T2/P1/C1
recognizes.  With several extras, ownership of a PC is assigned round-
robin; when a demand access hits a line some extra prefetched, that extra
takes over the PC ("use the component that brought in the line to handle
the instruction going forward").
"""

from __future__ import annotations

from repro.core.base import AccessEvent, Prefetcher, PrefetchRequest
from repro.telemetry.events import TRAINED


class Coordinator:
    """Steers accesses among specialized components and extras."""

    def __init__(self, components: list[Prefetcher],
                 extras: list[Prefetcher] | None = None) -> None:
        self.components = components
        self.extras = list(extras) if extras else []
        self._extra_owner: dict[int, int] = {}   # pc -> index into extras
        self._round_robin = 0
        self._extra_names = {p.name: i for i, p in enumerate(self.extras)}
        # (on_access, claims, always_observe, component) per component,
        # bound once: route() runs for every memory instruction.
        self._dispatch = [
            (c.on_access, c.claims, c.always_observe, c)
            for c in components
        ]
        self.telemetry = None
        """Optional telemetry hub; when set, the first claim of a PC by a
        specialized component emits a ``trained`` lifecycle event."""
        self._trained_pcs: set[int] = set()

    def reset(self) -> None:
        self._extra_owner.clear()
        self._round_robin = 0
        self._trained_pcs.clear()

    # ------------------------------------------------------------------
    def route(self, event: AccessEvent) -> list[PrefetchRequest] | None:
        """Offer the access to components in priority order.

        A claim by a higher-priority component gates lower-priority ones —
        except components marked ``always_observe`` (T2 and P1 share
        stride/value knowledge through the access stream, the paper's
        "expanded SIT").  A list is allocated only when a second
        component adds requests; a component's own list is never
        extended.
        """
        requests = None
        claimed = False
        pc = event.pc
        for on_access, claims, always_observe, component in self._dispatch:
            if claimed:
                if not always_observe:
                    continue
                result = on_access(event)
            else:
                result = on_access(event)
                if claims(pc):
                    claimed = True
                    telemetry = self.telemetry
                    if telemetry is not None and \
                            pc not in self._trained_pcs:
                        self._trained_pcs.add(pc)
                        telemetry.emit(TRAINED, event.cycle, line=event.line,
                                       component=component.component_tag,
                                       pc=pc)
            if result:
                requests = result if requests is None \
                    else [*requests, *result]
        if claimed or requests or not self.extras:
            return requests
        return self._route_extra(event)

    def _route_extra(self, event: AccessEvent) -> list[PrefetchRequest] | None:
        pc = event.pc
        # Rebinding: the component whose prefetched line served this access
        # owns the instruction from now on.
        if event.served_by_prefetch and event.serving_component is not None:
            serving = self._extra_names.get(event.serving_component)
            if serving is not None:
                self._extra_owner[pc] = serving

        owner = self._extra_owner.get(pc)
        if owner is None:
            owner = self._round_robin % len(self.extras)
            self._round_robin += 1
            self._extra_owner[pc] = owner
        return self.extras[owner].on_access(event)

    # ------------------------------------------------------------------
    def claims(self, pc: int) -> bool:
        return any(component.claims(pc) for component in self.components)

    @property
    def storage_bits(self) -> int:
        # Hardwired combinational steering: "no additional storage".
        return 0
