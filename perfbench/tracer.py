"""In-memory span tracer that wraps cfsim functions from outside the package.

Each function is wrapped under the name its caller looks it up by (for
example ``cfsim.harness.build_large_scale``, not ``cfsim.channel``), because
the caller holds its own reference after ``from .channel import ...``. A name
that no longer exists is recorded as absent instead of raising, so the traced
run survives renames. Wrappers reach only this process: run with ``jobs=1``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    """Spans (name, start, end, parent) and counters kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent_index]
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._patched = []

    def start(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def stop(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self.start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stop()

    def wrap(self, module, attr, span_name, before=None, after=None):
        """Replace module.attr by a traced wrapper. before() runs ahead of each
        call; after(result) runs after each call that returns."""
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            result = self.call(span_name, original, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self):
        """Inclusive and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        inclusive, self_time = Counter(), Counter()
        for i, (name, t0, t1, _) in enumerate(self.spans):
            inclusive[name] += t1 - t0
            self_time[name] += t1 - t0 - child[i]
        return inclusive, self_time
