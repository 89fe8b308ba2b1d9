"""In-memory span tracing for the benchmark's traced run.

A ``Tracer`` records one span per call into a wrapped function: its name,
its duration, its self time and the counts the wrapper attaches. Spans are
aggregated by name as they close, so memory stays flat however many calls
a run makes. ``Patch`` swaps wrappers in at the attribute names callers
look up and puts the originals back on exit.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    """Aggregate of every closed span with one name."""
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Nested-span recorder for one thread.

    Calls are synchronous, so a span's children are disjoint intervals
    inside it: self time is the span's duration minus the sum of its direct
    children's durations, which equals the part of the interval they cover.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = defaultdict(SpanStats)
        self._stack = []  # open spans: [name, start, child seconds]

    def enter(self, name: str):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        stats = self.stats[name]
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration

    def add(self, name: str, counts: dict):
        for key, value in counts.items():
            self.stats[name].counts[key] += value

    def wrap(self, fn, name, count=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a function of the call's arguments; ``count``
        maps (args, result) to the counts recorded on the span.
        """
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name_of(args)
            self.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if count:
                self.add(span, count(args, result))
            return result

        return traced


class Patch:
    """Context manager that installs traced wrappers and restores originals.

    ``targets`` is a list of (owner, attribute, span name, count) where owner
    is a module or class. Every attribute is restored on exit, also when the
    body raises.
    """

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = targets
        self._saved = []

    def __enter__(self):
        for owner, attr, name, count in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(getattr(owner, attr), name, count))
        return self.tracer

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
