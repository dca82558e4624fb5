"""Span tracer that wraps module attributes from outside the program.

A span covers one call of a wrapped function.  Spans nest through a stack:
when a span ends, its duration is charged to the enclosing span's child time,
so a span's self time is its duration minus the time its direct child spans
cover.  Counting wrappers (``Tracer.count``) record calls only and open no
span, so their time stays in the caller's self time.  Everything stays in
memory until ``summary`` is read.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import time


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "errors", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.durations = [] if keep_durations else None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counters = collections.Counter()
        self._child_time: list[float] = []

    def span(self, name: str, fn, after=None, keep_durations: bool = False):
        """Wrap ``fn`` in a span called ``name``.

        ``after(args, kwargs, result)`` runs on each successful return,
        outside the span, to update counters from the call.
        ``keep_durations`` keeps every call's duration for percentiles.
        """
        stats = self.spans.setdefault(name, SpanStats(keep_durations))
        clock = self.clock
        stack = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                duration = clock() - start
                child = stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - child
                if stats.durations is not None:
                    stats.durations.append(duration)
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count(self, name: str, fn):
        """Wrap ``fn`` so that each call adds one to counter ``name``."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.attr = new`` for each (owner, attr, new); restore on exit."""
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
