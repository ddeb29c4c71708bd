"""In-memory spans recorded around the benchmark's own calls into each layer.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
id of the span that caused it and the trace (round) it belongs to.  Spans
stay in memory while the workload runs and are written out as JSON lines
when it ends, so recording them costs a list append and two clock reads.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Spans:
    """A span recorder; when disabled, :meth:`span` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, trace: int = 0, **attrs):
        """Record ``name`` around the ``with`` body; yields the span id."""
        if not self.enabled:
            yield None
            return
        span_id = len(self.records)
        record = {
            "id": span_id,
            "name": name,
            "parent": parent,
            "trace": trace,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.records.append(record)
        try:
            yield span_id
        finally:
            record["end"] = time.perf_counter()

    def annotate(self, span_id: int | None, **attrs) -> None:
        """Attach attributes to a recorded span (no-op when disabled)."""
        if span_id is not None:
            self.records[span_id].update(attrs)

    def named(self, name: str) -> list[dict]:
        return [r for r in self.records if r["name"] == name]

    def durations(self, name: str) -> list[float]:
        return [
            r["end"] - r["start"] for r in self.records if r["name"] == name
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, span_id: int) -> float:
        """The span's duration minus the part its child spans cover."""
        span = self.records[span_id]
        children = sorted(
            (r["start"], r["end"]) for r in self.records if r["parent"] == span_id
        )
        return (span["end"] - span["start"]) - _covered(children)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of sorted ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in intervals:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total
