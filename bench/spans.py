"""In-memory spans recorded around calls made from any thread.

A span records its name, start, end, thread and parent span.  Spans opened
on a thread that has no open span of its own (a pool worker) take the
innermost open span of the main thread as parent: in gravlab only the main
thread submits work to pools, so that span is the ensemble call that
started the worker.  A span may carry one number of work done (rows
stepped, bytes written), filled in by the caller's ``measure`` hook.
"""
from __future__ import annotations

import functools
import threading
import time


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "work")

    def __init__(self, name, parent, thread, start=0.0, end=0.0, work=0.0):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = end
        self.work = work

    @property
    def duration(self) -> float:
        return self.end - self.start

    def has_ancestor(self, names) -> bool:
        node = self.parent
        while node is not None:
            if node.name in names:
                return True
            node = node.parent
        return False


class Recorder:
    """Collects finished spans from every thread until drained."""

    def __init__(self):
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._spans: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, measure=None):
        """fn with a span around each call; measure(args, kwargs, result) -> work."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a slice is taken atomically, so the main thread may push
                # or pop concurrently without an IndexError here
                top = self._main_stack[-1:]
                parent = top[0] if top else None
            span = Span(name, parent, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self._spans.append(span)  # list.append is atomic under the GIL
            if measure is not None:
                span.work = float(measure(args, kwargs, result))
            return result

        return timed

    def drain(self) -> list[Span]:
        spans, self._spans = self._spans, []
        return spans


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict:
    """Map id(parent span) -> list of its direct child spans."""
    out: dict = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(id(span.parent), []).append(span)
    return out


def self_time(span: Span, children: dict) -> float:
    """The span's interval minus the union of its children's intervals.

    Children on worker threads count too; where they overlap each other
    the overlap is removed once, not twice.
    """
    kids = children.get(id(span), ())
    covered = union_length(((k.start, k.end) for k in kids), span.start, span.end)
    return span.duration - covered
