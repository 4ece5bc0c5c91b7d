"""Spans recorded around public functions, wrapped where callers look them up.

A function is wrapped by replacing the attribute its callers read at call
time: a module global (`pipeline.match_frame`, `losses.hungarian_match`) or
a class attribute (`Pipeline.encode_frame`, `PatchEmbedder.__call__`). A name
bound into several modules by `from ... import` is replaced in each of them.
Spans stay in memory as (name, start, end, parent index) and are written out
once the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


class Patches:
    """Attribute replacements on modules and classes, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class Recorder:
    """In-memory spans; a span's parent is the innermost span open at its start."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, list[float]] = defaultdict(list)

    def wrap(self, fn: Callable, name: str,
             on_return: Callable[[tuple, object], None] | None = None) -> Callable:
        """`fn` inside a span; returns exactly what `fn` returns or raises."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def span_stats(spans, window: tuple[float, float] | None = None):
    """Per span name: (calls, inclusive seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children. With `window`, only spans starting inside it count.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for idx, (name, start, end, parent) in enumerate(spans):
        if window is not None and not (window[0] <= start < window[1]):
            continue
        entry = stats[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[idx]
    return stats


def covered_time(spans, intervals: list[tuple[float, float]]) -> float:
    """Seconds of `intervals` covered by spans one level below a root span.

    Roots are the entry points the benchmark calls; their direct children
    are the layers the step spends its time in. What those children leave
    uncovered is the entry point's own loop glue.
    """
    children = sorted((start, end) for _, start, end, parent in spans
                      if parent >= 0 and spans[parent][3] < 0)
    covered = 0.0
    for lo, hi in intervals:
        for start, end in children:
            if start >= hi:
                break
            covered += max(0.0, min(end, hi) - max(start, lo))
    return covered
