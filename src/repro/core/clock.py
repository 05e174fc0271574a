"""The injectable monotonic clock shared by timing-sensitive subsystems.

The overhead governor and the observability hub both meter boundary
crossings in nanoseconds.  Hardwiring ``time.perf_counter_ns`` made
their numbers untestable: every governor test had to assert only
structural invariants because the measured values changed run to run.
:class:`Clock` names the dependency so production code keeps the raw
platform counter on the hot path while tests (and the same-seed
snapshot-determinism bench gate) substitute a :class:`FakeClock` whose
readings are a pure function of how many times it was read.

The hot-path contract matters: consumers pre-bind ``clock.monotonic_ns``
once and call the bound callable per crossing.  :class:`SystemClock`
therefore exposes ``monotonic_ns`` as an *instance attribute* aliasing
``time.perf_counter_ns`` directly, so the metered path pays the bare
builtin — no Python-level frame on top.
"""

from __future__ import annotations

import time


class Clock:
    """Monotonic clock protocol.

    ``monotonic_ns`` is the original hot-path surface.  The fleet
    scheduler's watchdog and retry backoff added three cold-path
    members: ``monotonic`` (seconds, for watchdog/lease arithmetic),
    ``process_time`` (CPU seconds, for critical-path accounting), and
    ``sleep`` (so retry backoff is a no-op wait on a :class:`FakeClock`
    instead of a real stall).
    """

    def monotonic_ns(self) -> int:
        raise NotImplementedError

    def monotonic(self) -> float:
        raise NotImplementedError

    def process_time(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class SystemClock(Clock):
    """The platform's highest-resolution monotonic counter."""

    def __init__(self):
        # Instance attributes, not methods: pre-binding ``monotonic_ns``
        # hands callers the raw builtin.
        self.monotonic_ns = time.perf_counter_ns
        self.monotonic = time.monotonic
        self.process_time = time.process_time
        self.sleep = time.sleep


class FakeClock(Clock):
    """A deterministic clock for tests and determinism gates.

    Every read returns the current time and then auto-advances by
    ``step`` nanoseconds, so two identical executions observe identical
    timestamps *and* identical durations.  ``advance`` models explicit
    passage of time between reads.
    """

    def __init__(self, start: int = 0, step: int = 1):
        if step < 0:
            raise ValueError("step must be non-negative")
        self._now = start
        self._step = step
        self.reads = 0
        #: Total seconds "slept" — asserted by scheduler backoff tests.
        self.slept = 0.0

    def monotonic_ns(self) -> int:
        now = self._now
        self._now += self._step
        self.reads += 1
        return now

    def monotonic(self) -> float:
        return self.monotonic_ns() / 1e9

    def process_time(self) -> float:
        # CPU time on a fake clock is the same deterministic counter:
        # each read advances by ``step``, so durations are a pure
        # function of how many reads happened in between.
        return self.monotonic_ns() / 1e9

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.slept += seconds
        self._now += int(seconds * 1e9)

    def advance(self, ns: int) -> None:
        if ns < 0:
            raise ValueError("cannot advance a monotonic clock backwards")
        self._now += ns


#: The process-wide default; consumers taking an optional ``clock``
#: parameter fall back to this instance.
SYSTEM_CLOCK = SystemClock()
