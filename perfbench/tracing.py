"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and run id. Spans stay in a
list and are written out once, when the run ends. A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    cpu_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``span`` is a context manager around one call."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent, self.run_id, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        cpu0 = time.process_time()
        try:
            yield s
        finally:
            s.cpu_s = time.process_time() - cpu0
            s.end = time.perf_counter()
            self._open.pop()

    def wall(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def write(self, path: Path, extra: dict) -> None:
        selfs = self_times(self.spans)
        payload = dict(extra)
        payload["spans"] = [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "run_id": s.run_id,
                "start": s.start,
                "end": s.end,
                "duration_s": s.duration,
                "self_s": selfs[s.id],
                "cpu_s": s.cpu_s,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` after clipping each to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {s.id: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans}


def uncovered_share(spans: list[Span], lo: float, hi: float) -> float:
    """Share of [lo, hi] that no top-level span covers."""
    top = [(s.start, s.end) for s in spans if s.parent is None]
    return 1.0 - covered(top, lo, hi) / (hi - lo)
