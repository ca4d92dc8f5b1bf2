"""In-memory spans for the traced benchmark run.

A span records one call into a kspm layer: its name (``<module>.<function>``),
the command it belongs to (``trace``), the enclosing span (``parent``), and
its start and end on the ``time.perf_counter`` clock.  Spans stay in memory
while the workload runs and are written out with the run's results, so
recording one costs two clock reads and a list append.

A span's self time is its duration minus the time covered by its children.
Calls too frequent to keep as spans (the per-grain scan observer) are added
to their parent's ``covered`` time as an aggregate instead.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    trace: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    covered: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace = 0
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, self.trace,
                 None if parent is None else parent.id, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.covered += s.duration

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer, the layer being the span name's module."""
        out: dict[str, float] = {}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s.self_time
        return out
