"""Spans recorded by the benchmark around its calls into each layer.

Nothing here touches ``src/``: a span brackets a call *from* perfbench
*into* a layer's public function.  Spans stay in memory during the run
and are written as JSON lines when it ends.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Dict, List, Optional

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "start", "end")

    def __init__(self, id: int, parent: Optional[int], name: str, start: float):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    """Context manager for one recording span; yields the span id."""

    __slots__ = ("_tracer", "_span", "_nested")

    def __init__(self, tracer: "Tracer", span: Span, nested: bool):
        self._tracer = tracer
        self._span = span
        self._nested = nested

    def __enter__(self) -> int:
        if self._nested:
            self._tracer._stack.append(self._span.id)
        self._span.start = _clock()
        return self._span.id

    def __exit__(self, *exc_info) -> None:
        self._span.end = _clock()
        if self._nested:
            self._tracer._stack.pop()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is one shared do-nothing manager."""

    enabled = False
    spans = ()

    def span(self, name: str, parent: Optional[int] = None) -> _NullSpan:
        return _NULL_SPAN


class Tracer:
    """Records ``{id, parent, workload, name, start, end}`` spans.

    A span opened without ``parent`` nests under the innermost open
    span.  Pass ``parent`` explicitly for work that runs concurrently
    under one parent (one child per node call inside a gathered gossip
    round); such a span does not become the nesting parent of others.
    """

    enabled = True

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str, parent: Optional[int] = None) -> _OpenSpan:
        nested = parent is None
        if nested and self._stack:
            parent = self._stack[-1]
        span = Span(len(self.spans), parent, name, 0.0)
        self.spans.append(span)
        return _OpenSpan(self, span, nested)

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id,
                    "parent": span.parent,
                    "workload": self.workload,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                }) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may overlap one another (concurrent node calls), so the
    covered part is the union of their intervals, clipped to the parent.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.duration - covered
    return result


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals
