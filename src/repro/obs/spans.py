"""Boundary-crossing span capture in a bounded ring buffer.

A *span* is one checked FFI crossing: enter/exit nanoseconds, the site
(function name, native or not), how many machine checks were eligible
at that site, and references to any violation clusters the crossing
fired.  Spans answer the question metrics cannot: *what did the slowest
recent crossings actually do?*

Two bounds keep span capture production-safe:

- the buffer is a fixed-capacity ring — capacity spans are retained,
  older ones are overwritten, and the snapshot reports how many were
  recorded in total so truncation is never silent;
- spans (and duration histograms) are taken on 1 in
  :attr:`~repro.obs.hub.ObsHub.sample_period` crossings per site,
  chosen by the site's own call counter — deterministic, seed-stable,
  and cheap to test (one mask compare) on the calls it skips.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class Span:
    """One recorded crossing."""

    __slots__ = (
        "seq",
        "function",
        "native",
        "enter_ns",
        "exit_ns",
        "machines",
        "violations",
    )

    def __init__(
        self,
        seq: int,
        function: str,
        native: bool,
        enter_ns: int,
        exit_ns: int,
        machines: int,
        violations: Tuple[str, ...],
    ):
        self.seq = seq
        self.function = function
        self.native = native
        self.enter_ns = enter_ns
        self.exit_ns = exit_ns
        self.machines = machines
        self.violations = violations

    def duration_ns(self) -> int:
        return self.exit_ns - self.enter_ns

    def to_json(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "function": self.function,
            "native": self.native,
            "enter_ns": self.enter_ns,
            "exit_ns": self.exit_ns,
            "duration_ns": self.duration_ns(),
            "machines": self.machines,
            "violations": list(self.violations),
        }


class SpanBuffer:
    """Fixed-capacity ring of the most recent spans.

    The ring holds bare field tuples, not :class:`Span` instances: the
    fused telemetry hook writes ``(seq, function, native, enter, exit,
    machines, violations)`` straight into its slot (see
    :meth:`ring_parts`), and :meth:`spans` materializes objects only
    when someone reads — allocation on the crossing path is one tuple.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: List[tuple] = [None] * capacity  # type: ignore[list-item]
        #: Lifetime append count, as a cell so fused hooks share it.
        self._count = [0]

    def ring_parts(self):
        """``(ring, capacity, count cell)`` for inline hot-path writes."""
        return self._ring, self.capacity, self._count

    def append(
        self,
        function: str,
        native: bool,
        enter_ns: int,
        exit_ns: int,
        machines: int,
        violations: Tuple[str, ...] = (),
    ) -> None:
        count = self._count
        seq = count[0]
        self._ring[seq % self.capacity] = (
            seq, function, native, enter_ns, exit_ns, machines, violations,
        )
        count[0] = seq + 1

    @property
    def recorded(self) -> int:
        """Spans recorded over the buffer's lifetime (kept or not)."""
        return self._count[0]

    def spans(self) -> List[Span]:
        """Retained spans, oldest first."""
        total = self._count[0]
        if total <= self.capacity:
            kept = self._ring[:total]
        else:
            head = total % self.capacity
            kept = self._ring[head:] + self._ring[:head]
        return [Span(*fields) for fields in kept]

    def snapshot(self) -> Dict[str, object]:
        kept = self.spans()
        return {
            "capacity": self.capacity,
            "recorded": self._count[0],
            "kept": len(kept),
            "spans": [span.to_json() for span in kept],
        }

    def reset(self) -> None:
        # In place: fused hooks hold references to the ring and cell.
        self._ring[:] = [None] * self.capacity
        self._count[0] = 0
