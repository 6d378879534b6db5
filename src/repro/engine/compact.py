"""Compact, immutable forms of a result's per-line records.

A run's hierarchy fills plain Python collections as it goes (see
:class:`~repro.memory.hierarchy.Hierarchy`): per-line miss Counters,
attempted-line sets and the credit log, a list of tuples.  A
:class:`~repro.engine.system.SimulationResult` outlives its run in the
experiment runner's memo and the on-disk result cache, so it keeps them
in the forms below instead, built once when the result is made:

* :class:`LineCounts` -- a miss footprint: line and count arrays,
  sorted by line;
* :class:`LineSet` -- an attempted-line footprint: a sorted array of
  unique lines;
* :class:`CreditLog` -- the credit log as columns: a kind code, line,
  component (an index into a per-log name table) and level per entry,
  with each ``on_pollution`` entry's victims as a slice of flat victim
  line and component arrays.

Every array holds its values at the narrowest unsigned width they need
(:func:`narrow`), so a line usually takes two or four bytes in memory,
in a pickle and in the result cache, where a line in a set or Counter
took 50 to 130.  Each form has an exact ``==`` that returns a bool, so a
whole result compares with ``==`` field by field, and pickles as its
arrays.  Arrays are read-only.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import itemgetter

import numpy as np

_UNSIGNED = tuple((dtype, np.iinfo(dtype).max)
                  for dtype in (np.uint8, np.uint16, np.uint32, np.uint64))
_INT64 = np.iinfo(np.int64)
_NONE = np.zeros(0, np.uint8)
_NONE.flags.writeable = False


def _width(low: int, high: int):
    """The narrowest dtype that holds ``low..high``: unsigned when
    ``low`` is not negative, else ``int64``; ``None`` beyond 64 bits."""
    if low >= 0:
        for dtype, top in _UNSIGNED:
            if high <= top:
                return dtype
    elif _INT64.min <= low and high <= _INT64.max:
        return np.int64
    return None


def narrow(values: list) -> np.ndarray:
    """``values`` (a list of ints) as an array of the narrowest unsigned
    width that holds them all.  A negative value makes it ``int64``, a
    value beyond 64 bits an object array, so no value is ever changed."""
    if not values:
        return _NONE
    try:
        wide = np.array(values, np.int64)
    except OverflowError:
        dtype = _width(min(values), max(values))
        return np.array(values, dtype if dtype is not None else object)
    return wide.astype(_width(int(wide.min()), int(wide.max())), copy=False)


def _frozen(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    # narrow() picks the dtype from the values, so equal contents have
    # equal dtypes; comparing dtypes first keeps uint64 against int64
    # from meeting as float64.
    return a.dtype == b.dtype and np.array_equal(a, b)


class LineSet:
    """An attempted-line footprint: ``lines``, sorted and unique."""

    __slots__ = ("lines",)

    def __init__(self, lines: np.ndarray = _NONE) -> None:
        self.lines = lines
        _frozen(lines)

    @classmethod
    def of(cls, lines) -> "LineSet":
        """The compact form of a set of lines (a ``LineSet`` as is)."""
        if isinstance(lines, LineSet):
            return lines
        array = narrow(list(lines))
        if len(array):
            array.sort()
        return cls(array)

    def mask(self, lines: np.ndarray) -> np.ndarray:
        """Which of ``lines`` (an array) this set holds, as a bool array."""
        own = self.lines
        if not len(own) or not len(lines):
            return np.zeros(len(lines), bool)
        if np.result_type(own, lines).kind not in "iu":
            # uint64 against int64 would meet as float64: ask a set.
            members = set(own.tolist())
            return np.fromiter(map(members.__contains__, lines.tolist()),
                               bool, len(lines))
        at = np.searchsorted(own, lines)
        at[at == len(own)] = 0
        return own[at] == lines

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LineSet):
            return NotImplemented
        return _same(self.lines, other.lines)

    def __reduce__(self):
        return LineSet, (self.lines,)

    def __repr__(self) -> str:
        return f"LineSet({len(self)} lines)"


class LineCounts:
    """A per-line miss footprint: ``lines`` (sorted, unique) and the
    miss ``counts`` at the same positions."""

    __slots__ = ("lines", "counts")

    def __init__(self, lines: np.ndarray = _NONE,
                 counts: np.ndarray = _NONE) -> None:
        self.lines = lines
        self.counts = counts
        _frozen(lines, counts)

    @classmethod
    def of(cls, counter) -> "LineCounts":
        """The compact form of a ``line -> count`` mapping (a
        ``LineCounts`` as is)."""
        if isinstance(counter, LineCounts):
            return counter
        lines = narrow(list(counter))
        counts = narrow(list(counter.values()))
        if len(lines) > 1:
            order = lines.argsort(kind="stable")
            lines, counts = lines[order], counts[order]
        return cls(lines, counts)

    def total(self) -> int:
        """Every miss of the footprint."""
        return int(self.counts.sum())

    def weight(self, mask: np.ndarray) -> int:
        """The misses of the lines ``mask`` selects."""
        return int(self.counts[mask].sum())

    def items(self):
        """``(line, count)`` pairs, by line."""
        return zip(self.lines.tolist(), self.counts.tolist())

    def __len__(self) -> int:
        return len(self.lines)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LineCounts):
            return NotImplemented
        return (_same(self.lines, other.lines)
                and _same(self.counts, other.counts))

    def __reduce__(self):
        return LineCounts, (self.lines, self.counts)

    def __repr__(self) -> str:
        return f"LineCounts({len(self)} lines, {self.total()} misses)"


ISSUED, USEFUL, POLLUTION = 0, 1, 2
""":class:`CreditLog` kind codes, one per tracker protocol method."""

_KINDS = {"on_prefetch_issued": ISSUED, "on_useful": USEFUL,
          "on_pollution": POLLUTION}
_first, _second, _third, _fourth = map(itemgetter, range(4))


class CreditLog:
    """A run's credit-accounting protocol calls, as columns.

    Entry ``i`` is ``kinds[i]`` (:data:`ISSUED`, :data:`USEFUL` or
    :data:`POLLUTION`) with ``lines[i]``, component
    ``names[components[i]]`` and ``levels[i]``; an issue has level 0 and
    a pollution entry line and component 0.  The ``k``-th pollution
    entry's victims are ``victim_lines[a:b]`` with components
    ``names[victim_components[a:b]]``, ``a, b = victim_offsets[k:k + 2]``.
    :meth:`walk` replays the entries in recorded order; iterating gives
    them back as the tuples ``Hierarchy.credit_log`` holds.
    """

    __slots__ = ("kinds", "lines", "components", "levels", "names",
                 "victim_offsets", "victim_lines", "victim_components")

    _ARRAYS = ("kinds", "lines", "components", "levels", "victim_offsets",
               "victim_lines", "victim_components")

    def __init__(self, kinds: np.ndarray = _NONE, lines: np.ndarray = _NONE,
                 components: np.ndarray = _NONE, levels: np.ndarray = _NONE,
                 names: tuple = (), victim_offsets: np.ndarray = _NONE,
                 victim_lines: np.ndarray = _NONE,
                 victim_components: np.ndarray = _NONE) -> None:
        self.kinds = kinds
        self.lines = lines
        self.components = components
        self.levels = levels
        self.names = names
        self.victim_offsets = victim_offsets
        self.victim_lines = victim_lines
        self.victim_components = victim_components
        _frozen(kinds, lines, components, levels, victim_offsets,
                victim_lines, victim_components)

    @classmethod
    def of(cls, entries) -> "CreditLog":
        """The columns of a list of credit-log tuples (a ``CreditLog``
        as is).  Every pass runs in C (``map``, ``compress``, numpy);
        only the pollution entries are visited one by one."""
        if isinstance(entries, CreditLog):
            return entries
        n = len(entries)
        if not n:
            return cls()
        kinds = np.fromiter(map(_KINDS.__getitem__, map(_first, entries)),
                            np.uint8, n)
        # An issue or use holds (line, component); a pollution entry
        # (level, victims).
        lines = narrow(list(map(_second, entries)))
        thirds = list(map(_third, entries))
        useful = kinds == USEFUL
        levels = np.zeros(n, np.uint8)
        levels[useful] = np.fromiter(
            map(_fourth, compress(entries, useful.tolist())), np.uint8,
            int(np.count_nonzero(useful)))
        present = dict.fromkeys(thirds)
        polluted = np.flatnonzero(kinds == POLLUTION)
        if len(polluted):
            levels[polluted] = lines[polluted]
            lines[polluted] = 0
            victims = [thirds[i] for i in polluted.tolist()]
            victim_offsets = narrow(
                np.cumsum([0, *map(len, victims)]).tolist())
            flat = list(chain.from_iterable(victims))
            victim_lines = narrow(list(map(_first, flat)))
            victim_names = list(map(_second, flat))
            present = dict.fromkeys(chain(
                (k for k in present if type(k) is not tuple), victim_names))
        else:
            victim_offsets = victim_lines = _NONE
            victim_names = []
        names = tuple(present)
        index = {name: i for i, name in enumerate(names)}
        width = _width(0, len(names))
        components = np.fromiter(map(index.get, thirds, repeat(0)), width,
                                 n)
        victim_components = np.fromiter(
            map(index.__getitem__, victim_names), width, len(victim_names))
        return cls(kinds, lines, components, levels, names, victim_offsets,
                   victim_lines, victim_components)

    def walk(self, issued, useful, pollution) -> None:
        """Call ``issued(line, component)``, ``useful(line, component,
        level)`` and ``pollution(level, victims)`` once per entry, in
        recorded order; ``victims`` is a tuple of ``(line, component)``
        pairs, sorted by line as recorded."""
        names = self.names
        if len(self.victim_offsets):
            offsets = self.victim_offsets.tolist()
            pairs = list(zip(self.victim_lines.tolist(),
                             map(names.__getitem__,
                                 self.victim_components.tolist())))
            next_victims = iter([tuple(pairs[a:b]) for a, b
                                 in zip(offsets, offsets[1:])]).__next__
        for kind, line, component, level in zip(
                self.kinds.tolist(), self.lines.tolist(),
                self.components.tolist(), self.levels.tolist()):
            if kind == ISSUED:
                issued(line, names[component])
            elif kind == USEFUL:
                useful(line, names[component], level)
            else:
                pollution(level, next_victims())

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self):
        entries: list[tuple] = []
        append = entries.append
        self.walk(
            lambda line, component: append(
                ("on_prefetch_issued", line, component)),
            lambda line, component, level: append(
                ("on_useful", line, component, level)),
            lambda level, victims: append(("on_pollution", level, victims)))
        return iter(entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CreditLog):
            return NotImplemented
        return self.names == other.names and all(
            _same(getattr(self, name), getattr(other, name))
            for name in self._ARRAYS)

    def __reduce__(self):
        return CreditLog, (self.kinds, self.lines, self.components,
                           self.levels, self.names, self.victim_offsets,
                           self.victim_lines, self.victim_components)

    def __repr__(self) -> str:
        return f"CreditLog({len(self)} entries)"
