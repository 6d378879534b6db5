"""Replay-kernel selection: which cells the specialized kernel may run.

The generic replay loop (``OoOCore.step`` in :mod:`repro.engine.ooo`)
carries a branch for every optional prefetcher hook — instruction-stream
feed, per-access observer, prefetch-request generator, fill
notification — and re-derives per-record facts on every retired
instruction.  The one specialized kernel, the segmented tier
(:mod:`repro.engine.segmented`), is generated per hook shape with the
dead hook branches absent.  This module decides the shape: a core's
hooks are summarized as a tuple of four flags (:func:`kernel_flags`),
and its instruction feeds as a feed shape (:func:`core_feeds`,
:func:`feed_shape`).  The same decision serves a single-core cell
(``OoOCore.run``) and every core of a multicore mix
(:mod:`repro.engine.multicore`).

The instruction-stream hook is not called per instruction.
:func:`core_feeds` lists the leaf feeds behind a core's hook
(:func:`repro.core.composite.instruction_feeds`: a composite's or
shunt's forwarder expands into its components), and the kernel calls a
feed only on the rows it declares (``feed_rows``: T2's taken backward
branches) and only while its gate is armed (``feed_gate``: P1's taint
walk).  A feed that declares nothing gets every instruction.

A sampler, a telemetry hub, a dynamic branch predictor, or an object
trace makes :func:`kernel_flags` return ``None``, and the generic loop
runs instead.  Bit-identity is the contract: the kernel must retire
every instruction with exactly the timing of the generic loop — only
wall clock may change, never a number.  The generic loop feeds every
hook every instruction, so it also proves each feed declaration.
``tests/test_kernels.py`` and ``repro fuzz`` pin it against the
``REPRO_KERNEL=generic`` escape hatch (which disables specialization
entirely, e.g. to bisect a suspected kernel bug).  The chosen variant
name (:func:`variant_name`) is carried on ``SimulationResult.kernel``
so benchmarks and the fault journal can attribute timings to a kernel;
every selection counts ``kernel.selected.<variant>`` and every
exec-compile ``kernel.compiled.<variant>`` in the process metrics
registry (:mod:`repro.obs.metrics`), next to ``kernel.plan_builds``
and ``kernel.plan_cache_hits``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.engine.branch import StaticPredictor
from repro.isa.trace import CompiledTrace

KERNEL_ENV = "REPRO_KERNEL"
GENERIC = "generic"


@contextmanager
def pinned_kernel(tier: str | None):
    """``REPRO_KERNEL`` pinned to ``tier`` (unset, i.e. the automatic
    selection, when ``None``), environment restored after."""
    previous = os.environ.get(KERNEL_ENV)
    if tier is None:
        os.environ.pop(KERNEL_ENV, None)
    else:
        os.environ[KERNEL_ENV] = tier
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(KERNEL_ENV, None)
        else:
            os.environ[KERNEL_ENV] = previous


def kernel_flags(core) -> tuple | None:
    """The hook-shape flag tuple for ``core``, or ``None`` for generic.

    Flags (in order): instruction-stream feed, access observer, access
    hook (request generator), fill hook.  ``None`` means the generic
    step loop must run: an object trace, a sampler, a telemetry hub on
    the hierarchy, a dynamic branch predictor, or the
    ``REPRO_KERNEL=generic`` escape hatch.
    """
    if os.environ.get(KERNEL_ENV) == GENERIC:
        return None
    if not isinstance(core.trace, CompiledTrace):
        return None
    if (core._sampler is not None
            or core.hierarchy.telemetry is not None
            or type(core._branch_predictor) is not StaticPredictor):
        return None
    return (
        core._observe_instruction is not None,
        core._observe_access is not None,
        core._on_access is not None,
        core._on_fill is not None,
    )


def variant_name(flags: tuple) -> str:
    """Human-readable kernel name, e.g.
    ``segmented+observe+issue+leanmem+staticbp``."""
    instr, oa, ona, of = flags
    parts = ["segmented"]
    if instr:
        parts.append("instr")
    if oa:
        parts.append("observe")
    if ona:
        parts.append("issue")
    if of:
        parts.append("fill")
    parts += ["leanmem", "staticbp"]
    return "+".join(parts)


def core_feeds(core) -> list[tuple]:
    """The leaf instruction feeds of ``core``'s prefetcher, in call
    order (:func:`repro.core.composite.instruction_feeds`); empty when
    it has no instruction-stream hook."""
    from repro.core.composite import instruction_feeds

    hook = core._observe_instruction
    return instruction_feeds(hook) if hook is not None else []


def feed_shape(feeds: list[tuple]) -> tuple:
    """The kernel-key part of ``feeds``: ``(rows, gated)`` per feed."""
    return tuple((rows, gate is not None) for _, rows, gate in feeds)
