"""In-memory span tracer wrapped around the program's public entry points.

The tracer patches methods on the program's classes from outside (nothing
in ``src/`` knows about it), records one span per call — name, start, end,
parent span, round id — and derives per-layer totals and self times after
the run.  Patches are removed when the ``installed`` block exits, so an
untraced phase in the same process runs the original methods.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    #: Index of the enclosing span in ``Tracer.spans`` (None for a root).
    parent: int | None
    round_id: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class LayerTotals:
    """One span name's totals; nested calls to the same name count once."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round_id = 0
        #: Spans are recorded only while set; the harness clears it around
        #: its own untimed work (reference results, twin writes).
        self.active = False
        self._stack: list[int] = []
        #: Counters entry-point hooks add to (e.g. MDP steps explored).
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[type, str, object]] = []

    # -- recording ------------------------------------------------------
    def wrap(self, name: str, function, on_result=None):
        """``function`` recording a span per call; ``on_result(tracer, result)``
        runs after the span closes."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter_ns(), 0, parent, tracer.round_id)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def patch(self, cls: type, method: str, name: str, on_result=None) -> None:
        """Replace ``cls.method`` with a traced version until uninstalled."""
        original = cls.__dict__.get(method)
        setattr(cls, method, self.wrap(name, getattr(cls, method), on_result))
        self._patches.append((cls, method, original))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patches):
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
        self._patches = []

    @contextlib.contextmanager
    def installed(self, patches):
        """Apply ``(cls, method, name[, on_result])`` patches for the block."""
        try:
            for patch in patches:
                self.patch(*patch)
            yield self
        finally:
            self.uninstall()

    # -- analysis -------------------------------------------------------
    def totals(self) -> dict[str, LayerTotals]:
        """Per-name calls, total and self seconds.

        A span nested inside a span of the same name (a batch lookup that
        calls the single lookup) is folded into its outer span, so a name's
        total never counts the same interval twice.  Self time is the
        span's duration minus the time its direct children cover.
        """
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.duration_ns
        totals: dict[str, LayerTotals] = {}
        for index, span in enumerate(self.spans):
            entry = totals.setdefault(span.name, LayerTotals())
            entry.self_s += (span.duration_ns - child_ns[index]) / 1e9
            if not self._inside_same_name(span):
                entry.calls += 1
                entry.total_s += span.duration_ns / 1e9
        return totals

    def _inside_same_name(self, span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            ancestor = self.spans[parent]
            if ancestor.name == span.name:
                return True
            parent = ancestor.parent
        return False

    def root_seconds(self) -> float:
        return sum(s.duration_ns for s in self.spans if s.parent is None) / 1e9
