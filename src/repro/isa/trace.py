"""Dynamic trace containers produced by :class:`repro.isa.machine.Machine`.

A trace is the interface between the functional substrate and the timing
simulator: the timing model replays records in program order and the
prefetchers observe a per-record view equivalent to what the paper's
hardware sees at decode/issue/commit.

Two representations exist:

* :class:`Trace` — one :class:`TraceRecord` object per retired
  instruction.  This is what the machine emits and the reference replay
  path consumes; it stays the ground truth the compiled form is checked
  against.
* :class:`CompiledTrace` — one column per field, numpy-canonical once
  loaded (trace cache, trace file, shared memory), with Python-list
  views materialized lazily.  List columns index at the same speed as
  slot attribute access (the stored ``int`` objects are returned
  directly, nothing is boxed), while the arrays serialize in one
  C-level pass per column — which is what makes the on-disk trace
  cache (:mod:`repro.workloads.tracecache`) and zero-copy shared-memory
  attach (:mod:`repro.parallel.shm`) cheap.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.isa.instructions import OpClass
from repro.obs.metrics import PROCESS

LINE_SHIFT = 6
"""log2 of the cache-line size; the single source of truth shared with
:mod:`repro.memory.hierarchy` (which re-exports it) and the derived
``line`` column below."""


class TraceRecord:
    """One retired dynamic instruction.

    Attributes
    ----------
    pc:
        Virtual program counter of the instruction.
    opc:
        :class:`~repro.isa.instructions.OpClass` as an ``int`` (hot path).
    addr:
        Effective byte address for loads/stores, else ``0``.
    value:
        The 64-bit value loaded (loads only); lets pointer prefetchers
        observe load outcomes the way real hardware observes the fill.
    dst / src1 / src2:
        Architectural register operands, ``-1`` when unused.
    taken / target_pc:
        Branch outcome and destination (branches, calls, returns).
    ras_top:
        Top of the return address stack *before* this instruction executes;
        T2 XORs it into the PC for call-site disambiguation.
    """

    __slots__ = (
        "pc",
        "opc",
        "addr",
        "value",
        "dst",
        "src1",
        "src2",
        "taken",
        "target_pc",
        "ras_top",
    )

    def __init__(
        self,
        pc: int,
        opc: int,
        addr: int = 0,
        value: int = 0,
        dst: int = -1,
        src1: int = -1,
        src2: int = -1,
        taken: bool = False,
        target_pc: int = 0,
        ras_top: int = 0,
    ) -> None:
        self.pc = pc
        self.opc = opc
        self.addr = addr
        self.value = value
        self.dst = dst
        self.src1 = src1
        self.src2 = src2
        self.taken = taken
        self.target_pc = target_pc
        self.ras_top = ras_top

    @property
    def is_load(self) -> bool:
        return self.opc == OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.opc == OpClass.STORE

    @property
    def is_mem(self) -> bool:
        return self.opc == OpClass.LOAD or self.opc == OpClass.STORE

    @property
    def is_branch(self) -> bool:
        return self.opc == OpClass.BRANCH

    @property
    def is_backward_branch(self) -> bool:
        return self.opc == OpClass.BRANCH and self.taken and self.target_pc < self.pc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecord(pc={self.pc:#x}, opc={OpClass(self.opc).name}, "
            f"addr={self.addr:#x}, dst=r{self.dst})"
        )


@dataclass(slots=True)
class TraceStats:
    """Aggregate counts over a trace."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0
    calls: int = 0
    returns: int = 0

    @property
    def memory_accesses(self) -> int:
        return self.loads + self.stores


@dataclass
class Trace:
    """A complete dynamic trace plus the memory image it executed against.

    ``memory`` is the data image *after* execution; pointer-chain structures
    in the workloads are built statically so prefetchers that dereference
    memory (P1's chain FSM) observe the same values the program did.
    """

    name: str
    records: list[TraceRecord]
    memory: dict[int, int] = field(default_factory=dict)
    _stats: TraceStats | None = field(default=None, repr=False,
                                      compare=False)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def stats(self) -> TraceStats:
        """Aggregate statistics, computed once and cached.

        Several experiments call ``stats()`` repeatedly on the same
        trace; the record walk only happens on the first call.  Callers
        must treat the returned object as read-only.
        """
        if self._stats is not None:
            return self._stats
        stats = TraceStats()
        stats.instructions = len(self.records)
        for record in self.records:
            opc = record.opc
            if opc == OpClass.LOAD:
                stats.loads += 1
            elif opc == OpClass.STORE:
                stats.stores += 1
            elif opc == OpClass.BRANCH:
                stats.branches += 1
                if record.taken:
                    stats.taken_branches += 1
            elif opc == OpClass.CALL:
                stats.calls += 1
            elif opc == OpClass.RET:
                stats.returns += 1
        self._stats = stats
        return stats

    def memory_footprint(self, line_bytes: int = 64) -> set[int]:
        """Unique cache-line addresses touched by loads and stores."""
        shift = line_bytes.bit_length() - 1
        return {
            record.addr >> shift
            for record in self.records
            if record.opc == OpClass.LOAD or record.opc == OpClass.STORE
        }


TRACE_FIELDS = ("pc", "opc", "addr", "value", "dst", "src1", "src2",
                "taken", "target_pc", "ras_top")
"""Column order shared by :class:`CompiledTrace`, the trace cache's
serialized form, and :mod:`repro.isa.traceio`."""

TRACE_FIELD_TYPECODES = ("q", "b", "q", "q", "b", "b", "b", "b", "q", "q")
""":mod:`array` typecode per column for serialization (``q`` = signed
64-bit, ``b`` = signed 8-bit; register operands fit in a byte, ``-1``
included)."""

NUMPY_TYPECODES = {"q": "int64", "b": "int8"}
"""numpy dtype name per :mod:`array` typecode — the single translation
table shared by the trace cache, :mod:`repro.isa.traceio`, and the
shared-memory column layout (:mod:`repro.parallel.shm`)."""


def numpy_dtype(code: str) -> str:
    """The numpy dtype name of an :mod:`array` typecode (``q``/``b``)."""
    return NUMPY_TYPECODES[code]

# ----------------------------------------------------------------------
# Derived columns: per-record facts the timing model would otherwise
# recompute for every (workload x prefetcher) cell.  Computed once per
# workload at compile time, persisted alongside the primary columns by
# the trace cache, and consumed by the segment plan
# (repro.engine.segmented).  Derivation passes and cache restores count
# as trace_cache.derived_builds / derived_hits in the process metrics
# registry (repro.obs.metrics).

DISP_LOAD = 0
DISP_STORE = 1
DISP_ALU = 2
DISP_BR_COND = 3
DISP_BR_UNCOND = 4
DISP_OTHER = 5

DERIVED_FIELDS = ("line", "mpc", "disp", "bp_miss")
"""Derived column order: cache-line index (``addr >> LINE_SHIFT``),
miss PC (``pc ^ ras_top``), op-class dispatch tag (``DISP_*``), and the
static branch predictor's outcome (1 iff a conditional branch
mispredicts under backward-taken/forward-not-taken)."""

DERIVED_FIELD_TYPECODES = ("q", "q", "b", "b")

_FIELD_INDEX = {name: i for i, name in enumerate(TRACE_FIELDS)}

BACKWARD_TAKEN = "backward_taken"
"""The taken backward branches: the one row set a prefetcher can declare
as its instruction feed (:attr:`repro.core.base.Prefetcher.feed_rows`).
T2's loop hardware acts on nothing else.  Static BTFNT predicts every
such branch correctly, so none is a segment event."""

SEGMENT_DTYPE = "q"
"""Typecode/dtype of the serialized segment-event column (signed 64-bit
positions into the trace)."""


def _np():
    """Lazy numpy import; keeps ``repro.isa`` importable without it."""
    import numpy

    return numpy


class CompiledTrace:
    """A dynamic trace compiled to one column per record field.

    Traces loaded from the trace cache, a trace file, or shared memory
    are numpy-canonical: the ten numpy arrays are the columns, and each
    list view (``taken`` holds bools) materializes lazily on its first
    touch, so vectorized consumers never pay a ``tolist`` pass.  Traces
    compiled in-process from an object :class:`Trace` start from the
    lists and build their arrays on the first :meth:`array_columns`
    call.  Indexing a list returns the stored object directly, so the
    timing model's hot loop reads ``col[i]`` at slot-attribute speed
    without materializing a record object per instruction.
    ``records`` lazily materializes classic :class:`TraceRecord` views
    for the generic loop and for analyses that want per-record objects;
    the views are built once and cached.  The replay kernels read them
    only for a feed that declares no row set or gate: they feed the
    cached views of a declared row set (:meth:`feed_records`) and build
    any other row's view at the call (:meth:`record`).

    ``memory`` is the same post-execution data image a :class:`Trace`
    carries (P1's chain FSM dereferences it).
    """

    __slots__ = ("name", "_memory", "_memory_arrays", "pc", "opc",
                 "addr", "value", "dst", "src1", "src2", "taken",
                 "target_pc", "ras_top",
                 "_stats", "_records", "_derived", "_arrays",
                 "_derived_arrays", "_segments", "_plans", "_pcs",
                 "_feeds")

    def __init__(self, name: str, columns: tuple | None,
                 memory: dict[int, int]):
        self.name = name
        self._memory = memory
        self._memory_arrays: tuple | None = None
        self._arrays: tuple | None = None
        self._derived_arrays: tuple | None = None
        self._segments = None
        self._plans: dict = {}
        self._stats: TraceStats | None = None
        self._records: list[TraceRecord] | None = None
        self._derived: tuple | None = None
        self._pcs: dict[int, int] = {}
        self._feeds: dict[str, tuple] = {}
        if columns is not None:
            (self.pc, self.opc, self.addr, self.value, self.dst,
             self.src1, self.src2, self.taken, self.target_pc,
             self.ras_top) = columns

    def __getattr__(self, attr):
        # Array-backed traces leave the ten list-column slots unset; the
        # first touch of one materializes the list from the canonical
        # numpy array (``taken`` arrays are bool dtype, so ``tolist``
        # yields Python bools, indistinguishable from a compiled list).
        index = _FIELD_INDEX.get(attr)
        if index is not None and self._arrays is not None:
            if attr == "pc":
                values = self._share_pcs(self._arrays[index])
            else:
                values = self._arrays[index].tolist()
            setattr(self, attr, values)
            return values
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {attr!r}"
        )

    def _share_pcs(self, column) -> list:
        """``column`` as a list holding, for each value, the one int
        object this trace's ``pc`` and ``mpc`` lists share for it.

        Both columns hold a few distinct values (instruction addresses,
        XORed with the return-stack top for ``mpc``), yet ``tolist()``
        and the XOR allocate one int object per row; shared, each list
        costs a pointer per row.
        """
        np = _np()
        values, rows = np.unique(np.asarray(column), return_inverse=True)
        pool = self._pcs
        shared = np.array([pool.setdefault(v, v) for v in values.tolist()],
                          dtype=object)
        return shared[rows].tolist()

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace) -> "CompiledTrace":
        """Compile an object trace; the memory image is shared, not copied."""
        records = trace.records
        columns = tuple(
            [getattr(r, name) for r in records] for name in TRACE_FIELDS
        )
        compiled = cls(trace.name, columns, trace.memory)
        compiled.pc = compiled._share_pcs(compiled.pc)
        return compiled

    @classmethod
    def from_arrays(cls, name: str, arrays: tuple,
                    memory: dict[int, int]) -> "CompiledTrace":
        """Build an array-backed trace (trace cache format 3 / traceio).

        ``arrays`` holds one numpy array per :data:`TRACE_FIELDS` entry
        (``taken`` must be bool dtype).  The list columns are *not*
        materialized here — scalar consumers get them lazily through
        ``__getattr__`` while vectorized consumers read the arrays
        directly, so the ``tolist()`` round-trip disappears from every
        path that never leaves numpy.
        """
        trace = cls(name, None, memory)
        trace._arrays = tuple(arrays)
        return trace

    @classmethod
    def from_shared(cls, name: str, arrays: tuple, derived: tuple,
                    segments, memory_arrays: tuple) -> "CompiledTrace":
        """Reconstruct a trace over attached shared-memory views.

        Every argument is a numpy view into a
        :mod:`repro.parallel.shm` segment — nothing is copied.  The
        memory image arrives as aligned ``(addresses, values)`` arrays
        and the dict is only materialized on the first ``.memory``
        touch, so attaching stays O(1) regardless of footprint.
        """
        trace = cls(name, None, {})
        trace._arrays = tuple(arrays)
        trace._derived_arrays = tuple(derived)
        trace._segments = segments
        trace._memory = None
        trace._memory_arrays = tuple(memory_arrays)
        return trace

    def to_trace(self) -> Trace:
        """Materialize a classic object :class:`Trace` (shared memory dict)."""
        return Trace(name=self.name, records=list(self.records),
                     memory=self.memory)

    # ------------------------------------------------------------------
    @property
    def memory(self) -> dict[int, int]:
        """The post-execution data image (P1's chain FSM reads it).

        Shared-memory-attached traces rebuild the dict lazily from the
        aligned address/value arrays; insertion order matches the
        publishing parent's dict order, so the rebuilt image is equal
        (and iterates identically) to the original.
        """
        if self._memory is None:
            addresses, values = self._memory_arrays
            self._memory = dict(zip(addresses.tolist(), values.tolist()))
        return self._memory

    @memory.setter
    def memory(self, value: dict[int, int]) -> None:
        self._memory = value

    @property
    def columns(self) -> tuple:
        """The ten columns in :data:`TRACE_FIELDS` order."""
        return (self.pc, self.opc, self.addr, self.value, self.dst,
                self.src1, self.src2, self.taken, self.target_pc,
                self.ras_top)

    @property
    def records(self) -> list[TraceRecord]:
        """Lazily materialized per-record views (cached)."""
        if self._records is None:
            self._records = [
                TraceRecord(pc, opc, addr=addr, value=value, dst=dst,
                            src1=src1, src2=src2, taken=taken,
                            target_pc=target_pc, ras_top=ras_top)
                for pc, opc, addr, value, dst, src1, src2, taken,
                target_pc, ras_top in zip(*self.columns)
            ]
        return self._records

    def array_columns(self) -> tuple:
        """The ten columns as numpy arrays (cached both directions).

        Array-backed traces return their canonical arrays; list-backed
        traces pay one ``asarray`` pass per column on first call.
        """
        if self._arrays is None:
            np = _np()
            cols = []
            for name, code in zip(TRACE_FIELDS, TRACE_FIELD_TYPECODES):
                col = getattr(self, name)
                if name == "taken":
                    cols.append(np.asarray(col, dtype=np.bool_))
                else:
                    dtype = np.dtype(numpy_dtype(code))
                    cols.append(np.asarray(col, dtype=dtype))
            self._arrays = tuple(cols)
        return self._arrays

    def derived_columns(self) -> tuple:
        """The four derived columns in :data:`DERIVED_FIELDS` order.

        Built lazily from the primary columns (one pass per trace) when
        the trace-cache entry predates them or the trace was compiled in
        this process; cache-loaded traces carry them pre-built (as
        arrays under format 3, materialized to lists here on demand).
        """
        if self._derived is None:
            if self._derived_arrays is not None:
                line, mpc, disp, bp_miss = self._derived_arrays
                self._derived = (line.tolist(), self._share_pcs(mpc),
                                 disp.tolist(), bp_miss.tolist())
            else:
                self._derived = self._build_derived()
        return self._derived

    def derived_arrays(self) -> tuple:
        """The derived columns as numpy arrays (cached).

        Built from :meth:`derived_columns` so array and list views are
        derived from the same pass and can never disagree.
        """
        if self._derived_arrays is None:
            np = _np()
            line, mpc, disp, bp_miss = self.derived_columns()
            self._derived_arrays = (
                np.asarray(line, dtype=np.int64),
                np.asarray(mpc, dtype=np.int64),
                np.asarray(disp, dtype=np.int8),
                np.asarray(bp_miss, dtype=np.int8),
            )
        return self._derived_arrays

    def segment_events(self):
        """Sorted positions of segment boundary events (numpy).

        An *event* is any instruction the segmented replay tier cannot
        fold into a pure register-dataflow scan: memory accesses (they
        touch the hierarchy) and statically mispredicted conditional
        branches (they perturb the fetch clock).  The stretches
        *between* events are hook-free by construction and replay as
        vectorized scans.  The column is geometry-independent, so it is
        precomputed once at compile time and persisted by trace-cache
        format 3.
        """
        if self._segments is None:
            np = _np()
            _, _, disp, bp_miss = self.derived_arrays()
            self._segments = np.flatnonzero(
                (disp <= DISP_STORE) | (bp_miss != 0)
            ).astype(np.int64)
        return self._segments

    def _build_derived(self) -> tuple:
        PROCESS.count("trace_cache.derived_builds")
        branch = int(OpClass.BRANCH)
        load = int(OpClass.LOAD)
        store = int(OpClass.STORE)
        alu = int(OpClass.ALU)
        line = [a >> LINE_SHIFT for a in self.addr]
        mpc = self._share_pcs(
            [p ^ r for p, r in zip(self.pc, self.ras_top)])
        disp = []
        bp_miss = []
        append_disp = disp.append
        append_bp = bp_miss.append
        for opc, src1, pc, target_pc, taken in zip(
                self.opc, self.src1, self.pc, self.target_pc, self.taken):
            if opc == load:
                append_disp(DISP_LOAD)
                append_bp(0)
            elif opc == store:
                append_disp(DISP_STORE)
                append_bp(0)
            elif opc == alu:
                append_disp(DISP_ALU)
                append_bp(0)
            elif opc == branch:
                if src1 >= 0:
                    append_disp(DISP_BR_COND)
                    # Static BTFNT outcome: predict taken iff the target
                    # is backward; mispredict iff that differs from the
                    # recorded outcome.
                    append_bp(1 if (target_pc < pc) != taken else 0)
                else:
                    append_disp(DISP_BR_UNCOND)
                    append_bp(0)
            else:
                append_disp(DISP_OTHER)
                append_bp(0)
        return (line, mpc, disp, bp_miss)

    def feed_records(self, rows: str) -> tuple[list, list]:
        """``(positions, views)`` of the row set ``rows`` (cached).

        ``positions`` is the sorted row indices of the set (only
        :data:`BACKWARD_TAKEN` exists) and ``views`` their
        :class:`TraceRecord`
        views, so a kernel feeding those rows builds a view for nothing
        else.  The views are ``records``' own when those exist.
        """
        feed = self._feeds.get(rows)
        if feed is None:
            if rows != BACKWARD_TAKEN:
                raise ValueError(f"unknown feed row set {rows!r}")
            np = _np()
            columns = self.array_columns()
            pc, opc, taken, target_pc = (columns[_FIELD_INDEX[name]]
                                         for name in ("pc", "opc", "taken",
                                                      "target_pc"))
            where = np.flatnonzero((opc == int(OpClass.BRANCH)) & taken
                                   & (target_pc < pc))
            positions = where.tolist()
            if self._records is not None:
                views = [self._records[i] for i in positions]
            else:
                views = [TraceRecord(*row) for row in zip(
                    *(column[where].tolist() for column in columns))]
            feed = self._feeds[rows] = (positions, views)
        return feed

    def record(self, index: int) -> TraceRecord:
        """One :class:`TraceRecord` view of row ``index``: the cached
        view when ``records`` was built, else a new one read from the
        arrays of an array-backed trace (no list column materializes)."""
        if self._records is not None:
            return self._records[index]
        if self._arrays is not None:
            return TraceRecord(*[column.item(index)
                                 for column in self._arrays])
        return TraceRecord(
            self.pc[index], self.opc[index], addr=self.addr[index],
            value=self.value[index], dst=self.dst[index],
            src1=self.src1[index], src2=self.src2[index],
            taken=self.taken[index], target_pc=self.target_pc[index],
            ras_top=self.ras_top[index],
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._arrays is not None:
            return len(self._arrays[0])
        return len(self.pc)

    def __iter__(self):
        return iter(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledTrace(name={self.name!r}, n={len(self)})"

    def stats(self) -> TraceStats:
        """Aggregate statistics from the columns, cached after first call."""
        if self._stats is not None:
            return self._stats
        opc = self.opc
        stats = TraceStats()
        stats.instructions = len(opc)
        stats.loads = opc.count(OpClass.LOAD)
        stats.stores = opc.count(OpClass.STORE)
        stats.branches = opc.count(OpClass.BRANCH)
        stats.calls = opc.count(OpClass.CALL)
        stats.returns = opc.count(OpClass.RET)
        if stats.branches:
            branch = int(OpClass.BRANCH)
            stats.taken_branches = sum(
                1 for o, t in zip(opc, self.taken) if t and o == branch
            )
        self._stats = stats
        return stats

    def memory_footprint(self, line_bytes: int = 64) -> set[int]:
        """Unique cache-line addresses touched by loads and stores."""
        shift = line_bytes.bit_length() - 1
        load = int(OpClass.LOAD)
        store = int(OpClass.STORE)
        return {
            a >> shift
            for o, a in zip(self.opc, self.addr)
            if o == load or o == store
        }

    # ------------------------------------------------------------------
    def column_bytes(self) -> dict[str, bytes]:
        """Serialize every column through :mod:`array` (one C pass each).

        Array-backed traces serialize straight from numpy without ever
        materializing the list columns; both paths emit byte-identical
        blobs (``q``/``b`` little-endian, ``taken`` as 0/1 bytes).
        """
        if self._arrays is not None:
            np = _np()
            blobs = {}
            for name, code, col in zip(TRACE_FIELDS,
                                       TRACE_FIELD_TYPECODES,
                                       self._arrays):
                dtype = np.dtype(numpy_dtype(code))
                blobs[name] = np.ascontiguousarray(
                    col, dtype=dtype).tobytes()
            return blobs
        return {
            name: array(code, col).tobytes()
            for name, code, col in zip(TRACE_FIELDS, TRACE_FIELD_TYPECODES,
                                       self.columns)
        }

    def segment_bytes(self) -> bytes:
        """Serialize the segment-event column (building it if needed)."""
        np = _np()
        return np.ascontiguousarray(
            self.segment_events(), dtype=np.int64).tobytes()

    def derived_bytes(self) -> dict[str, bytes]:
        """Serialize the derived columns (building them if needed)."""
        return {
            name: array(code, col).tobytes()
            for name, code, col in zip(DERIVED_FIELDS,
                                       DERIVED_FIELD_TYPECODES,
                                       self.derived_columns())
        }

    @classmethod
    def from_column_bytes(cls, name: str, blobs: dict[str, bytes],
                          memory: dict[int, int],
                          derived: dict[str, bytes] | None = None,
                          segments: bytes | None = None,
                          ) -> "CompiledTrace":
        """Inverse of :meth:`column_bytes`.

        The restored trace is array-backed: each blob becomes a numpy
        view (``taken`` converted to bool dtype) and list columns
        materialize lazily, so cache hits never pay a ``tolist`` pass
        for columns only the vectorized tier reads.  ``derived``, when
        present (trace-cache format 2+), restores the precomputed
        derived columns; ``segments`` (format 3) the segment events.
        """
        np = _np()
        arrays = []
        for field_name, code in zip(TRACE_FIELDS, TRACE_FIELD_TYPECODES):
            dtype = np.dtype(numpy_dtype(code))
            col = np.frombuffer(blobs[field_name], dtype=dtype)
            if field_name == "taken":
                col = col.astype(np.bool_)
            arrays.append(col)
        trace = cls.from_arrays(name, tuple(arrays), memory)
        if derived is not None:
            restored = []
            for field_name, code in zip(DERIVED_FIELDS,
                                        DERIVED_FIELD_TYPECODES):
                dtype = np.dtype(numpy_dtype(code))
                restored.append(
                    np.frombuffer(derived[field_name], dtype=dtype)
                )
            trace._derived_arrays = tuple(restored)
            PROCESS.count("trace_cache.derived_hits")
        if segments is not None:
            trace._segments = np.frombuffer(segments, dtype=np.int64)
        return trace


def compile_trace(trace: Trace | CompiledTrace) -> CompiledTrace:
    """Compile ``trace`` to columnar form (no-op if already compiled)."""
    if isinstance(trace, CompiledTrace):
        return trace
    return CompiledTrace.from_trace(trace)
