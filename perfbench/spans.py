"""In-memory span recorder for the traced benchmark run.

A span is one call across a layer boundary: its name, start and end on the
system-wide monotonic clock (``time.perf_counter_ns``, comparable between
processes on Linux), its own id, the id of the span that caused it (0 for a
root), a key shared by every span of one reading (``profile/depth/channel:seq``)
and a free-form tag (a verdict, a row count, a tick). Spans stay in memory and
are written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: int
    end: int
    id: int
    parent: int
    key: str | None = None
    tag: object = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Recorder:
    """Collects spans from any number of threads; parents come from a
    per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, key=None, tag=None):
        """Return ``fn`` wrapped so each call records a span. ``key(args)``
        and ``tag(args, result)`` derive the span's key and tag."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(Span(
                    name, start, end, span_id, parent,
                    key(args) if key else None,
                    tag(args, result) if tag else None,
                ))

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as f:
            json.dump([list(s) for s in self.spans], f)


def load(path: str) -> list[Span]:
    with open(path, encoding="ascii") as f:
        return [Span(*s) for s in json.load(f)]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of each span in ns: its duration minus the part of its
    interval that the union of its children's intervals covers."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        reach = s.start  # end of the covered prefix so far
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = s.duration - covered
    return out
