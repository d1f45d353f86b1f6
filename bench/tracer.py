"""Outside-in tracing: spans around a program's functions, installed from
the benchmark's side so that no file of the program changes.

A module function is replaced in every module namespace that bound it,
because a ``from .x import f`` caller holds its own reference and patching
only the defining module would miss it.  A method is replaced on its
class.  Each wrapper opens a span on one stack; a span's self time is its
duration minus the durations of the spans it encloses.  ``remove`` puts
every original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self, package: str, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.stats = defaultdict(Stat)  # span name -> Stat
        self.counts = defaultdict(int)  # counter name -> value
        self._stack = []  # open spans as [name, seconds spent in child spans]
        self._patches = []  # (owner, attribute, original value)

    def parent(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][0] if self._stack else None

    def span(self, name, fn, after=None):
        """fn inside a span called name.

        after(args, kwargs, result) runs when the span has closed; its time
        is charged to no span, so hooks that count do not inflate self times.
        """
        stack, stats, clock = self._stack, self.stats, self.clock

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat = stats[name]
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
            if after is not None:
                hook_start = clock()
                after(args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - hook_start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """fn counting its calls under name, without a span (for hot constructors)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def modules(self):
        return [m for key, m in list(sys.modules.items())
                if key == self.package or key.startswith(self.package + ".")]

    def patch_function(self, module, attr, make):
        """Replace module.attr by make(original) wherever the package bound it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in self.modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))
        return wrapper

    def patch_method(self, cls, attr, make):
        """Replace cls.attr by make(function), keeping a staticmethod static."""
        raw = cls.__dict__[attr]
        static = isinstance(raw, staticmethod)
        wrapper = make(raw.__func__ if static else raw)
        setattr(cls, attr, staticmethod(wrapper) if static else wrapper)
        self._patches.append((cls, attr, raw))
        return wrapper

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
