"""In-memory call tracing by wrapping functions where their callers look
them up.

A `Tracer` replaces attributes such as ``tailnav.controllers.select_command``
with timing wrappers and puts the originals back on exit.  Three kinds of
wrapper exist:

- ``span``: timed, and each call is kept as a span (name, start, end,
  parent) for the trace file;
- ``timed``: timed and aggregated, but not kept call by call (for
  functions called thousands of times per second);
- ``count``: only counted.

Timed and span calls keep a frame on a stack, so each call knows how much
of its interval its wrapped callees covered; the rest is its self time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable

_MISSING = object()

KINDS = ("span", "timed", "count")


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, float] = defaultdict(float)
        # Per-call values the benchmark derives from results.
        self.samples: dict[str, list] = defaultdict(list)
        self.spans: list[tuple[int, int, str, float, float]] = []
        # Each open timed call holds [child seconds, id of the nearest
        # kept span, id of its parent span, start time].
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def wrap(self, targets: Iterable[tuple[object, str]], name: str, *,
             kind: str = "timed",
             label: Callable[[tuple], str] | None = None,
             on_return: Callable[[tuple, object], None] | None = None,
             keep_durations: bool = False) -> None:
        """Wrap every ``getattr(owner, attr)`` in `targets` under `name`.

        `label(args)` may name a call from its arguments instead (for
        example per controller kind); `on_return(args, result)` updates
        counters from a call's result.  With `keep_durations` every call's
        duration is kept for percentiles.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        for owner, attr in targets:
            original = getattr(owner, attr)
            wrapper = self._make_wrapper(original, name, kind, label,
                                         on_return, keep_durations)
            saved = vars(owner).get(attr, _MISSING)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, saved))

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    @contextmanager
    def installed(self):
        try:
            yield self
        finally:
            self.restore()

    def _make_wrapper(self, fn, name, kind, label, on_return,
                      keep_durations):
        if kind == "count":
            counters = self.counters

            def counted(*args, **kwargs):
                counters[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted

        keep_span = kind == "span"

        def timed(*args, **kwargs):
            frame = self._begin(keep_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(frame, label(args) if label else name, keep_span,
                          keep_durations)
            if on_return is not None:
                on_return(args, result)
            return result
        return timed

    def _begin(self, keep_span: bool) -> list:
        parent_span = self._stack[-1][1] if self._stack else 0
        if keep_span:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent_span
        frame = [0.0, span_id, parent_span, self.clock()]
        self._stack.append(frame)
        return frame

    def _end(self, frame: list, name: str, keep_span: bool,
             keep_durations: bool) -> None:
        t1 = self.clock()
        self._stack.pop()
        child_s, span_id, parent_span, t0 = frame
        dur = t1 - t0
        if self._stack:
            self._stack[-1][0] += dur
        st = self.stats[name]
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_s
        if keep_durations:
            if st.durations is None:
                st.durations = []
            st.durations.append(dur)
        if keep_span:
            self.spans.append((span_id, parent_span, name, t0, t1))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into the
        library (for example one episode or one suite round)."""
        frame = self._begin(True)
        try:
            yield
        finally:
            self._end(frame, name, True, False)

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def total_ms(self, name: str) -> float:
        return 1e3 * self.stats[name].total_s if name in self.stats else 0.0

    def self_ms(self, name: str) -> float:
        return 1e3 * self.stats[name].self_s if name in self.stats else 0.0

    def mean_ms(self, name: str) -> float:
        n = self.calls(name)
        return self.total_ms(name) / n if n else 0.0

    def durations_ms(self, name: str) -> list[float]:
        st = self.stats.get(name)
        if st is None or st.durations is None:
            return []
        return [1e3 * d for d in st.durations]

    def write(self, path: Path, context: dict) -> None:
        """Write the kept spans and the per-name totals as one JSON file."""
        origin = min((s[3] for s in self.spans), default=0.0)
        doc = {
            "context": context,
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [[i, p, n, round(a - origin, 9), round(b - origin, 9)]
                      for i, p, n, a, b in self.spans],
            "totals": {
                n: {"calls": s.calls, "total_ms": 1e3 * s.total_s,
                    "self_ms": 1e3 * s.self_s}
                for n, s in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
        tmp.replace(path)
