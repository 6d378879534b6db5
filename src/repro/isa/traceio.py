"""Trace serialization: save/load dynamic traces as compact .npz files.

Functional execution is cheap, but sharing a trace between processes (or
pinning an exact trace for regression hunting) needs a stable on-disk
form.  Records are stored as parallel numpy arrays; the memory image as
two aligned arrays of addresses and values.

Both trace representations serialize to the same format: a compiled
:class:`~repro.isa.trace.CompiledTrace` writes its columns directly (one
vectorized conversion per field), an object :class:`~repro.isa.trace.Trace`
is walked record by record.  ``load_trace`` reconstructs the object form,
``load_compiled`` the columnar form — from the same file.

This is the *archival* format (compressed, numpy-portable).  The hot
read-through trace cache (:mod:`repro.workloads.tracecache`) uses its own
lighter container tuned for load speed.
"""

from __future__ import annotations

import numpy as np

from repro.isa.trace import CompiledTrace, Trace, TraceRecord

_FORMAT_VERSION = 1


def _arrays_from_trace(trace: Trace | CompiledTrace):
    """The eight npz arrays, built columnar-fast when possible."""
    if isinstance(trace, CompiledTrace):
        # Straight off the backing numpy columns (TRACE_FIELDS order:
        # pc, opc, addr, value, dst, src1, src2, taken, target_pc,
        # ras_top) — no tolist round-trip through Python objects, and
        # shared-memory trace views export without materializing their
        # lazy list columns.
        n = len(trace)
        (pc, opc, addr, value, dst, src1, src2, taken, target_pc,
         ras_top) = trace.array_columns()
        regs = np.empty((n, 3), dtype=np.int8)
        regs[:, 0] = dst
        regs[:, 1] = src1
        regs[:, 2] = src2
        return (
            np.asarray(pc, dtype=np.int64),
            np.asarray(opc, dtype=np.int8),
            np.asarray(addr, dtype=np.int64),
            np.asarray(value, dtype=np.int64),
            regs,
            np.asarray(taken, dtype=np.bool_),
            np.asarray(target_pc, dtype=np.int64),
            np.asarray(ras_top, dtype=np.int64),
        )
    n = len(trace.records)
    pc = np.empty(n, dtype=np.int64)
    opc = np.empty(n, dtype=np.int8)
    addr = np.empty(n, dtype=np.int64)
    value = np.empty(n, dtype=np.int64)
    regs = np.empty((n, 3), dtype=np.int8)
    taken = np.empty(n, dtype=np.bool_)
    target_pc = np.empty(n, dtype=np.int64)
    ras_top = np.empty(n, dtype=np.int64)
    for i, r in enumerate(trace.records):
        pc[i] = r.pc
        opc[i] = r.opc
        addr[i] = r.addr
        value[i] = r.value  # machine values are already signed-64 wrapped
        regs[i, 0] = r.dst
        regs[i, 1] = r.src1
        regs[i, 2] = r.src2
        taken[i] = r.taken
        target_pc[i] = r.target_pc
        ras_top[i] = r.ras_top
    return pc, opc, addr, value, regs, taken, target_pc, ras_top


def save_trace(trace: Trace | CompiledTrace, path: str) -> None:
    """Write ``trace`` (object or compiled) to ``path`` (.npz)."""
    pc, opc, addr, value, regs, taken, target_pc, ras_top = (
        _arrays_from_trace(trace)
    )
    memory_addresses = np.fromiter(trace.memory.keys(), dtype=np.int64,
                                   count=len(trace.memory))
    memory_values = np.fromiter(
        (v if -(1 << 63) <= v < (1 << 63) else v - (1 << 64)
         for v in trace.memory.values()),
        dtype=np.int64,
        count=len(trace.memory),
    )
    np.savez_compressed(
        path,
        version=np.int32(_FORMAT_VERSION),
        name=np.str_(trace.name),
        pc=pc, opc=opc, addr=addr, value=value, regs=regs,
        taken=taken, target_pc=target_pc, ras_top=ras_top,
        memory_addresses=memory_addresses, memory_values=memory_values,
    )


def _load_arrays(path: str):
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version}"
            )
        name = str(data["name"])
        arrays = {key: data[key] for key in
                  ("pc", "opc", "addr", "value", "regs", "taken",
                   "target_pc", "ras_top")}
        memory = {
            int(a): int(v)
            for a, v in zip(data["memory_addresses"],
                            data["memory_values"])
        }
    return name, arrays, memory


def load_trace(path: str) -> Trace:
    """Read a trace written by :func:`save_trace` as an object trace."""
    name, a, memory = _load_arrays(path)
    pc, opc, addr, value = a["pc"], a["opc"], a["addr"], a["value"]
    regs, taken = a["regs"], a["taken"]
    target_pc, ras_top = a["target_pc"], a["ras_top"]
    records = [
        TraceRecord(
            int(pc[i]), int(opc[i]), addr=int(addr[i]),
            value=int(value[i]), dst=int(regs[i, 0]),
            src1=int(regs[i, 1]), src2=int(regs[i, 2]),
            taken=bool(taken[i]), target_pc=int(target_pc[i]),
            ras_top=int(ras_top[i]),
        )
        for i in range(len(pc))
    ]
    return Trace(name=name, records=records, memory=memory)


def load_compiled(path: str) -> CompiledTrace:
    """Read a trace written by :func:`save_trace` as a compiled trace.

    The loaded numpy arrays become the trace's canonical columns
    directly (no ``tolist()`` round-trip); scalar consumers materialize
    list views lazily while the segmented tier's plan builder reads
    the arrays as-is.
    """
    name, a, memory = _load_arrays(path)
    regs = a["regs"]
    arrays = (
        a["pc"],
        a["opc"],
        a["addr"],
        a["value"],
        np.ascontiguousarray(regs[:, 0]),
        np.ascontiguousarray(regs[:, 1]),
        np.ascontiguousarray(regs[:, 2]),
        a["taken"].astype(np.bool_),
        a["target_pc"],
        a["ras_top"],
    )
    return CompiledTrace.from_arrays(name, arrays, memory)
