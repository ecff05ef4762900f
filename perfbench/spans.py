"""In-memory spans around the benchmark's calls into modsat's layers."""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Tracer:
    """Records (name, start_ns, end_ns, parent, op, clauses) spans in
    memory and writes them as JSONL.

    ``parent`` is the index of the enclosing span, ``op`` the id of the
    operation the span belongs to (None during set-up).
    """

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, clauses: int = 0):
        """Time the block; ``clauses`` is the input size it covered, if any."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield index
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, clauses)

    def durations_ns(self, name: str) -> list[int]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def median_ns(self, name: str) -> float:
        values = self.durations_ns(name)
        return statistics.median(values) if values else 0.0

    def us_per_clause(self, name: str) -> float:
        values = [(s[2] - s[1]) / 1e3 / s[5] for s in self.spans if s[0] == name and s[5]]
        return statistics.median(values) if values else 0.0

    def children(self) -> dict[int, list[int]]:
        """[covered ns, span count] of the direct children of each span."""
        out: dict[int, list[int]] = {}
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                entry = out.setdefault(parent, [0, 0])
                entry[0] += end - start
                entry[1] += 1
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, clauses) in enumerate(self.spans):
                record = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "op": op}
                if clauses:
                    record["clauses"] = clauses
                fh.write(json.dumps(record) + "\n")


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    enabled = False
    op = None
    _null = contextlib.nullcontext()

    def span(self, name: str, clauses: int = 0):
        return self._null


def span_cost_ns(samples: int = 20000) -> float:
    """Median cost of recording one empty span, from batches of 100."""
    tracer = Tracer()
    costs = []
    for _ in range(samples // 100):
        start = time.perf_counter_ns()
        for _ in range(100):
            with tracer.span("calibrate"):
                pass
        costs.append((time.perf_counter_ns() - start) / 100)
    return statistics.median(costs)
