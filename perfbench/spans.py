"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, instance]``: ``name`` is
``<module>.<function>`` of the library call it wraps, ``start``/``end``
are ``time.perf_counter()`` readings, ``parent`` is the index of the
enclosing span (or ``None``) and ``instance`` identifies the benchmark
instance the call served.  Spans are only appended while the run lasts
and are written out once it ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, instance: int):
        self.tracer = tracer
        parent = tracer.stack[-1] if tracer.stack else None
        self.record = [name, 0.0, 0.0, parent, instance]

    def __enter__(self):
        tracer = self.tracer
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, float, int]] = []
        self.stack: list[int] = []

    def span(self, name: str, instance: int) -> _Span:
        return _Span(self, name, instance)

    def count(self, name: str, value: float, instance: int) -> None:
        self.counts.append((name, value, instance))

    def self_times(self) -> list[tuple[str, int, float]]:
        """``(name, instance, self seconds)`` per span: its duration minus
        the time its child spans cover.  Children of one span never
        overlap (the benchmark is single-threaded), so the covered time
        is the sum of their durations."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            (name, instance, end - start - covered[i])
            for i, (name, start, end, _, instance) in enumerate(self.spans)
        ]

    def self_ms_by_name(self) -> dict[str, list[tuple[int, float]]]:
        table: dict[str, list[tuple[int, float]]] = defaultdict(list)
        for name, instance, seconds in self.self_times():
            table[name].append((instance, 1000.0 * seconds))
        return table

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, spans=self.spans, counts=self.counts)
        path.write_text(json.dumps(doc) + "\n")


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: spans and counts cost one method call and record
    nothing."""

    enabled = False
    _span = _NoSpan()

    def span(self, name: str, instance: int) -> _NoSpan:
        return self._span

    def count(self, name: str, value: float, instance: int) -> None:
        pass
