"""In-memory span tracing for the srsd benchmark.

The traced run wraps module-level names that srsd's layers call through (for
example ``srsd.pipeline.detect_mean``), so no file of the package changes and
the untraced run executes the package exactly as shipped. Each wrapped call
records one span: a name, a start and an end in nanoseconds, and the index of
the enclosing span. Spans stay in memory until the run ends; self times and
counts are derived from them afterwards.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

Counting = Callable[[Counter, tuple, dict, Any], None]


class Tracer:
    """Collects spans of a single-threaded run; parents come from a call stack."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1)
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(("", 0, 0, -1))
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn: Callable, counting: Counting | None = None) -> Callable:
        """Return fn wrapped in a span; counting(counts, args, kwargs, result) runs after it."""

        def traced(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if counting is not None:
                counting(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, patches: list[tuple[str, str, str, Counting | None]]) -> Iterator[None]:
        """Replace each (module, attribute) with its traced wrapper, restoring on exit."""
        saved = []
        try:
            for module_name, attr, span_name, counting in patches:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, counting))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            totals[name] += (end - start - covered) / 1e9
        return dict(totals)

    def span_counts(self) -> Counter:
        return Counter(name for name, _, _, _ in self.spans)
