"""In-memory spans recorded by the benchmark around public calls into gsbraid.

A span has a name (``layer.call``), start and end times from
``time.perf_counter``, the span that caused it, the operation it belongs
to (spans of one operation share ``op``) and free-form counts.  Spans stay
in memory until ``dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: Optional[int]
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent.op
        s = Span(len(self.spans), parent.id if parent else None, op, name, 0.0)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
