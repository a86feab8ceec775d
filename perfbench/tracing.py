"""Spans recorded around calls into the package, from outside it.

Nothing here patches or wraps the package: the worker passes each public
call through `Tracer.call`, which is a plain call while `recording` is
off and records a span while it is on.  Spans stay in memory until the
run ends.
"""
from __future__ import annotations

import gc
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    """Records (name, start, end, parent) spans and named counts.

    The parent of a span is the index of the span open when it started, so
    the spans of one operation (compile, check, query) share its root span.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self.recording = False

    def call(self, name, fn, *args):
        if not self.recording:
            return fn(*args)
        index = len(self.spans)
        self.spans.append(None)  # reserved so children see their parent
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = perf()
        try:
            return fn(*args)
        finally:
            end = perf()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def count(self, name: str, value: float) -> None:
        if self.recording:
            self.counts[name] += value

    def snapshot(self) -> "Tracer":
        """A copy holding the spans and counts recorded so far."""
        copy = Tracer()
        copy.spans = list(self.spans)
        copy.counts = defaultdict(float, self.counts)
        return copy

    def self_ms(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start - child_time[i]) * 1000
        return totals

    def total_ms(self, name: str) -> float:
        return sum((e - s) * 1000 for n, s, e, _ in self.spans if n == name)


class GcWatch:
    """Collector pauses and generation-2 collections, via gc.callbacks.

    It only observes; thresholds and the collector itself are untouched.
    """

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = 0.0
        self.active = False

    def __call__(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._start = perf()
        else:
            self.pause_s += perf() - self._start
            if info["generation"] == 2:
                self.gen2 += 1

    def install(self) -> None:
        gc.callbacks.append(self)

    def remove(self) -> None:
        gc.callbacks.remove(self)
