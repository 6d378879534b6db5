"""Windowed observation of prefetch behavior (paper Sec. III / Fig. 1).

The paper defines scope and effective accuracy "over a particular window
of observation" and strings windows together for global averages.  The
whole-run metrics in :mod:`repro.analysis.metrics` are the single-window
case; this module adds the per-window time series, which exposes phase
behavior (e.g. a prefetcher warming up, or losing the plot when the
working set shifts).

Usage::

    recorder = WindowRecorder(window_accesses=4096)
    result = simulate(trace, prefetcher, tracker=recorder)
    for window in recorder.windows:
        print(window.index, window.issued, window.useful_fraction)

The recorder implements the tracker protocol, so ``simulate`` feeds it
the run's recorded credit log; combine with a baseline run's windowed
miss counts for per-window scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Window:
    """Prefetch activity in one observation window."""

    index: int
    issued: int = 0
    useful: int = 0
    pollution: float = 0.0
    attempted_lines: set = field(default_factory=set)

    @property
    def useful_fraction(self) -> float:
        if self.issued == 0:
            return 0.0
        return self.useful / self.issued

    @property
    def net_credit(self) -> float:
        return self.useful - self.pollution


class WindowRecorder:
    """Tracker-protocol recorder that segments events into windows.

    Windows advance on *prefetch-relevant events* (issues, uses,
    pollution); tie the window length to demand accesses by calling
    :meth:`tick` from the caller if finer control is needed.
    """

    def __init__(self, window_events: int = 2048) -> None:
        self.window_events = window_events
        self.windows: list[Window] = [Window(index=0)]
        self._events = 0

    # ------------------------------------------------------------------
    def _advance(self) -> Window:
        self._events += 1
        current = self.windows[-1]
        if self._events >= self.window_events:
            self._events = 0
            current = Window(index=current.index + 1)
            self.windows.append(current)
        return self.windows[-1]

    def tick(self) -> None:
        """External per-access tick (optional, for access-based windows)."""
        self._advance()

    # ------------------------------------------------------------------
    # Tracker protocol (see repro.analysis.credit.replay)
    # ------------------------------------------------------------------
    def on_prefetch_issued(self, line: int, component) -> None:
        window = self._advance()
        window.issued += 1
        window.attempted_lines.add(line)

    def on_useful(self, line: int, component, level: int) -> None:
        window = self._advance()
        window.useful += 1

    def on_pollution(self, level: int, victims) -> None:
        if not victims:
            return
        window = self._advance()
        window.pollution += 1.0

    # ------------------------------------------------------------------
    def series(self) -> list[tuple[int, float]]:
        """(window index, useful fraction) time series."""
        return [(w.index, w.useful_fraction) for w in self.windows]

    def total_issued(self) -> int:
        return sum(w.issued for w in self.windows)

    def warmup_windows(self, threshold: float = 0.5) -> int:
        """How many leading windows before useful fraction crosses
        ``threshold`` (a warmup-time proxy)."""
        for i, window in enumerate(self.windows):
            if window.issued > 0 and window.useful_fraction >= threshold:
                return i
        return len(self.windows)


def windows_from_events(events, window_events: int = 2048
                        ) -> list[Window]:
    """Rebuild per-window prefetch activity from a telemetry trace.

    Accepts the stream a :class:`repro.telemetry.Telemetry` hub recorded
    (live ``LifecycleEvent`` objects or dicts loaded back from JSONL via
    :func:`repro.telemetry.read_jsonl`), so the windowed analyses above
    run off a saved trace file without re-simulating.  Only the three
    kinds the tracker protocol sees are replayed: ``issued``,
    ``first_use``, and ``pollution_hit``.
    """
    recorder = WindowRecorder(window_events)
    for event in events:
        if isinstance(event, dict):
            kind, line = event["kind"], event.get("line", -1)
            component, level = event.get("component"), event.get("level", 0)
        else:
            kind, line = event.kind, event.line
            component, level = event.component, event.level
        if kind == "issued":
            recorder.on_prefetch_issued(line, component)
        elif kind == "first_use":
            recorder.on_useful(line, component, level)
        elif kind == "pollution_hit":
            recorder.on_pollution(level, [(line, component)])
    return recorder.windows
