"""In-memory spans for the traced run.

The benchmark wraps each call it makes into a layer in a span: a name,
a start, an end, and the span that contains it.  All spans of one
program execution share an identifier such as
``bugs:LocalDangling:jinn:r7``.  Spans stay in memory and are written
once, when the run ends.  A span's self time is its duration minus the
time its child spans cover; children never overlap, because the
benchmark runs one call at a time.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, List, Optional

#: Every span name the benchmark records (see README.md).
SPAN_NAMES = (
    "program",
    "vm.boot",
    "workload.build",
    "kernel.run",
    "vm.shutdown",
    "recorder.close",
    "replay.decode",
    "replay.run",
    "fuzz.run_ops",
    "synth.compile",
)

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer = self.tracer
        tracer.spans.append(self.record)
        tracer._stack.append(len(tracer.spans) - 1)
        self.record[2] = time.perf_counter()

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Collects spans; a disabled tracer hands out a shared no-op context."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: [program id, name, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._program = ""

    def span(self, name: str, program: Optional[str] = None):
        if not self.enabled:
            return _NULL
        if program is not None:
            self._program = program
        parent = self._stack[-1] if self._stack else -1
        return _Span(self, [self._program, name, 0.0, 0.0, parent])

    def self_times(self) -> Dict[str, float]:
        """Total self time in seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for i, (_, name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
        return totals

    def to_json(self) -> Dict[str, object]:
        origin = self.spans[0][2] if self.spans else 0.0
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": [
                [program, name, round(start - origin, 7),
                 round(end - origin, 7), parent]
                for program, name, start, end, parent in self.spans
            ],
            "self_s": {
                name: round(total, 6)
                for name, total in sorted(self.self_times().items())
            },
        }


#: The shared disabled tracer for untraced runs.
OFF = Tracer(enabled=False)
