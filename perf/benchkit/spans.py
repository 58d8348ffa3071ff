"""Harness-side spans around the calls into each layer.

A span is ``{id, op_id, name, layer, parent, start_ns, end_ns}``.  Spans
are held in memory and written out once, when the run ends.  ``parent``
is the span that encloses this one in time: every op's spans hang off one
``harness.ladder`` root, so a parent always exists and encloses its
children.  The order of the boundaries (outer to inner) is the static
ladder documented in ``perf/README.md``, not the parent pointer — inner
boundaries are re-executed after the outer call returns, because spans
inside the program are a later change.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    op_id: int
    name: str
    layer: str
    parent: int | None
    start_ns: int
    end_ns: int = 0

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """An in-memory span list with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, op_id: int, name: str, layer: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(
            len(self.spans), op_id, name, layer, parent, time.perf_counter_ns()
        )
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [span.ms for span in self.spans if span.name == name]

    def by_op(self, name: str) -> dict[int, float]:
        """``op_id -> duration`` of the spans called ``name`` (last wins)."""
        return {span.op_id: span.ms for span in self.spans if span.name == name}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")

    def check(self) -> list[str]:
        """Violations of "every parent exists and encloses its child"."""
        problems = []
        for span in self.spans:
            if span.end_ns < span.start_ns:
                problems.append(f"span {span.id} ends before it starts")
            if span.parent is None:
                continue
            if not 0 <= span.parent < len(self.spans):
                problems.append(f"span {span.id}: parent {span.parent} missing")
                continue
            parent = self.spans[span.parent]
            if not (
                parent.start_ns <= span.start_ns and span.end_ns <= parent.end_ns
            ):
                problems.append(
                    f"span {span.id} ({span.name}) not enclosed by its parent "
                    f"{parent.id} ({parent.name})"
                )
        return problems
