"""FFI event record/replay.

Everything the paper's checker decides is a pure function of the
language-transition stream (§3.2): record the stream once and the
checker can be re-run offline, deterministically, without the simulated
JVM or interpreter in the loop.  The package splits into:

- :mod:`repro.trace.format` — the versioned JSONL trace schema + codec;
- :mod:`repro.trace.recorder` — the live tap, attached through the
  observer hook on :class:`repro.core.runtime.CheckerRuntime`;
- :mod:`repro.trace.replay` — the offline re-checking engine: each
  recorded crossing drives the synthesized checker's own entries, with
  the raw calls replayed from the trace;
- :mod:`repro.trace.corpus` — records the benchmark suites into a
  trace corpus with a manifest;
- :mod:`repro.trace.diff` — compares two replays' violation streams.
"""

from repro.trace.format import (
    TRACE_VERSION,
    TraceFingerprintError,
    TraceFormatError,
    read_trace,
)
from repro.trace.diff import diff_reports, render_diff
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import ReplayResult, replay_lines, replay_path, replay_trace

__all__ = [
    "TRACE_VERSION",
    "TraceFingerprintError",
    "TraceFormatError",
    "TraceRecorder",
    "ReplayResult",
    "diff_reports",
    "read_trace",
    "render_diff",
    "replay_lines",
    "replay_path",
    "replay_trace",
]
