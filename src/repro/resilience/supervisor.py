"""Supervised execution: child-process shards under a watchdog.

The supervisor is the deployment story for everything the repo can
run unattended — fuzz rounds, corpus replays, recorded workloads: each
shard runs in its own child process, a wall-clock watchdog kills hangs,
exits are classified (``clean`` / ``violation`` / ``crash`` / ``hang``),
crashed or hung shards are retried with capped exponential backoff plus
deterministic jitter, and everything merges into one incident report.

Classification is by construction, not by parsing output: a child that
finishes hands its structured result back over a pipe; a child that
dies leaves a negative ``exitcode`` (the killing signal); a child the
watchdog had to kill is a hang.  Wall-clock durations appear in the
report for humans but are excluded from anything a determinism gate
compares.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.clock import SYSTEM_CLOCK, Clock
from repro.fuzz.engine import task_rng

#: Exit classifications, in merge-severity order.
CLEAN = "clean"
VIOLATION = "violation"
CRASH = "crash"
HANG = "hang"


# ----------------------------------------------------------------------
# Shard bodies (must be importable top-level functions: children are
# forked/spawned by multiprocessing and send results over a pipe).
# ----------------------------------------------------------------------


def _body_fuzz(params: dict) -> dict:
    from repro.fuzz.engine import fuzz_gate, fuzz_run

    report = fuzz_run(
        params.get("seed", 0),
        rounds=params.get("rounds", 1),
        substrate=params.get("substrate", "pyc"),
        segments=params.get("segments"),
    )
    # Detected injected faults are the fuzzer doing its job; only gate
    # failures (false positives, misses, divergences) make the shard a
    # "violation" in supervisor terms.
    return {
        "kind": "fuzz",
        "violations": fuzz_gate(report),
        "totals": report["totals"],
    }


def _body_replay(params: dict) -> dict:
    from repro.trace.replay import replay_path

    result = replay_path(params["path"], force=params.get("force", False))
    return {
        "kind": "replay",
        "violations": result.violations,
        "events": result.event_count,
    }


def _body_ops(params: dict) -> dict:
    from repro.fuzz.ops import run_jni_ops, run_pyc_ops

    runner = run_pyc_ops if params.get("substrate") == "pyc" else run_jni_ops
    outcome = runner([tuple(op) for op in params["ops"]])
    return {
        "kind": "ops",
        "outcome": outcome.outcome,
        "violations": outcome.reports,
    }


def _body_record(params: dict) -> dict:
    """Record a fuzz workload to a journal, optionally dying mid-run."""
    from repro.resilience.recover import journaled_fuzz_record

    return journaled_fuzz_record(params)


def _body_hang(params: dict) -> dict:
    time.sleep(params.get("seconds", 3600))
    return {"kind": "hang", "violations": []}


def _body_crash(params: dict) -> dict:
    import signal as _signal

    os.kill(os.getpid(), params.get("signal", _signal.SIGKILL))
    return {"kind": "crash", "violations": []}  # unreachable


def _body_raise(params: dict) -> dict:
    raise RuntimeError(params.get("message", "shard body raised"))


_BODIES = {
    "fuzz": _body_fuzz,
    "replay": _body_replay,
    "ops": _body_ops,
    "record": _body_record,
    "hang": _body_hang,
    "crash": _body_crash,
    "raise": _body_raise,
}


def _child_main(conn, kind: str, params: dict) -> None:
    try:
        payload = _BODIES[kind](params)
        conn.send(("ok", payload))
    except BaseException as exc:  # report, then die loudly
        try:
            conn.send(("error", "{}: {}".format(type(exc).__name__, exc)))
        finally:
            os._exit(70)
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Shard:
    """One unit of supervised work."""

    name: str
    kind: str  # a _BODIES key
    params: Dict[str, object] = field(default_factory=dict)


@dataclass
class ShardResult:
    name: str
    classification: str
    attempts: int
    #: Backoff delays applied before each retry (deterministic).
    backoffs: List[float]
    violations: List[str]
    detail: Optional[str] = None
    payload: Optional[dict] = None
    #: Wall seconds of the final attempt — reporting only, never gated.
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "classification": self.classification,
            "attempts": self.attempts,
            "backoffs": self.backoffs,
            "violations": self.violations,
            "detail": self.detail,
        }


class IncidentReport:
    """Merged outcome of one supervised session."""

    def __init__(self, shards: List[ShardResult]):
        self.shards = shards

    @property
    def counts(self) -> Dict[str, int]:
        out = {CLEAN: 0, VIOLATION: 0, CRASH: 0, HANG: 0}
        for shard in self.shards:
            out[shard.classification] += 1
        return out

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for shard in self.shards:
            out.extend(shard.violations)
        return out

    @property
    def ok(self) -> bool:
        counts = self.counts
        return counts[CRASH] == 0 and counts[HANG] == 0

    def to_json(self) -> dict:
        """Deterministic report body (no wall-clock fields)."""
        return {
            "counts": self.counts,
            "ok": self.ok,
            "shards": [shard.to_json() for shard in self.shards],
        }


def backoff_delay(
    seed: int, name: str, attempt: int, *, base: float, cap: float
) -> float:
    """Capped exponential backoff with deterministic jitter.

    Jitter derives from ``(seed, shard name, attempt)`` — two runs of
    the same supervised session schedule identical retries, so retry
    timing never makes an incident report irreproducible.
    """
    rng = task_rng(seed, "backoff", name, attempt)
    delay = min(cap, base * (2 ** attempt))
    return round(delay * (1.0 + 0.25 * rng.random()), 6)


class Supervisor:
    """Runs shards in child processes under a wall-clock watchdog.

    The watchdog measurement and the retry backoff both read the
    injectable ``clock`` (:mod:`repro.core.clock`), so supervisor — and
    fleet-scheduler — tests run on a :class:`FakeClock` without real
    stalls.  The child ``join`` timeout itself stays wall-clock: a real
    child process cannot be waited on in fake time.
    """

    def __init__(
        self,
        *,
        timeout: float = 60.0,
        retries: int = 1,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        seed: int = 0,
        clock: Optional[Clock] = None,
    ):
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.seed = seed
        self.clock = clock if clock is not None else SYSTEM_CLOCK

    # -- one attempt -----------------------------------------------------

    def _attempt(self, shard: Shard) -> ShardResult:
        import multiprocessing

        parent, child = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=_child_main,
            args=(child, shard.kind, dict(shard.params)),
            daemon=True,
        )
        start = self.clock.monotonic()
        proc.start()
        child.close()
        proc.join(self.timeout)
        seconds = self.clock.monotonic() - start
        if proc.is_alive():
            proc.terminate()
            proc.join(2.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            parent.close()
            return ShardResult(
                shard.name, HANG, 1, [], [],
                detail="watchdog killed after {:.1f}s".format(self.timeout),
                seconds=seconds,
            )
        message = None
        if parent.poll():
            try:
                message = parent.recv()
            except (EOFError, OSError):
                message = None
        parent.close()
        if message is not None and message[0] == "ok":
            payload = message[1]
            violations = list(payload.get("violations", []))
            classification = VIOLATION if violations else CLEAN
            return ShardResult(
                shard.name, classification, 1, [], violations,
                payload=payload, seconds=seconds,
            )
        if message is not None:  # ("error", text): the body raised
            return ShardResult(
                shard.name, CRASH, 1, [], [],
                detail=message[1], seconds=seconds,
            )
        code = proc.exitcode
        detail = (
            "killed by signal {}".format(-code)
            if code is not None and code < 0
            else "exited {} without a result".format(code)
        )
        return ShardResult(shard.name, CRASH, 1, [], [], detail=detail,
                           seconds=seconds)

    # -- retries + merge -------------------------------------------------

    def run_shard(self, shard: Shard) -> ShardResult:
        backoffs: List[float] = []
        result = self._attempt(shard)
        attempt = 0
        while result.classification in (CRASH, HANG) and attempt < self.retries:
            delay = backoff_delay(
                self.seed, shard.name, attempt,
                base=self.backoff_base, cap=self.backoff_cap,
            )
            backoffs.append(delay)
            self.clock.sleep(delay)
            attempt += 1
            result = self._attempt(shard)
        result.attempts = attempt + 1
        result.backoffs = backoffs
        return result

    def run(self, shards: List[Shard]) -> IncidentReport:
        """Run all shards one after another, in submission order.

        The report lists one result per shard, keyed by shard *name*, so
        names must be unique.  Parallel supervised work runs on the
        fleet (``fleet run --kind fuzz|replay --workers N``), which
        reuses this classification ladder and backoff.
        """
        names = [shard.name for shard in shards]
        if len(set(names)) != len(names):
            raise ValueError("shard names must be unique: {!r}".format(names))
        return IncidentReport([self.run_shard(shard) for shard in shards])


def run_with_timeout(
    kind: str, params: dict, timeout: float
) -> ShardResult:
    """One supervised call with no retries — the CLI ``--timeout`` path."""
    supervisor = Supervisor(timeout=timeout, retries=0)
    return supervisor.run_shard(Shard(name=kind, kind=kind, params=params))
