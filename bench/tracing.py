"""In-memory spans recorded around calls into tdcae's public functions.

A span has a name, a start, an end and the index of the span that was open
when it began (its parent), so a replay forms the tree workload -> stage ->
call. Nothing is written until the run ends. Times are time.monotonic()
seconds, which share one clock across the processes of a run, so spans
recorded by a child process can be merged into the parent's tree.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, time.monotonic(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.monotonic()
            self._open.pop()

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded elsewhere under the currently open span."""
        base = len(self.spans)
        parent = self._open[-1] if self._open else -1
        for name, start, end, p in spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p])

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def median(self, name: str) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(values)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_time_by_module(self) -> dict[str, float]:
        """Total self time per name prefix (the module before the first dot)."""
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            totals[name.split(".", 1)[0]] += own
        return dict(sorted(totals.items()))

    def as_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "self": own}
                for (n, s, e, p), own in zip(self.spans, self.self_times())]


class NullTracer:
    """Same interface as Tracer; records nothing (the untraced runs)."""

    _context = nullcontext()

    def span(self, name: str):
        return self._context
