"""The fleet dispatcher: jobs onto worker slots.

Topology: the parent owns one pending deque, in submission order, and
one duplex pipe per worker slot.  Each pass of the one run loop hands
every free slot the job at the head of the deque; due retries go to
the back.  A slot holds at most one job in flight.  Workers are dumb
executors — a child process looping ``recv job -> executor -> send
result`` — so all scheduling state lives in one place and the merge
layer can be exact.

The scheduler is the one runner for watched work: in process mode
every job runs in a worker process under a wall-clock watchdog, and
``trace replay --timeout`` / ``fuzz run --timeout`` are fleet runs with
``retries=0``.  Exits are classified by construction — the
classification ladder ``clean`` / ``violation`` (from the payload),
``crash`` (a raised error or a dead worker) and ``hang`` (a watchdog
kill).  A job's watchdog clock starts when it is dispatched, and a
worker that dies or hangs fails the one job it was running; its slot
is respawned at once.  A job that raises ends ``crash`` on its first
attempt: its executor is deterministic (a corrupt trace fails the same
way every time), so a retry would only repeat the work.  Dead workers
and watchdog kills retry with capped deterministic backoff
(:func:`backoff_delay`, from :data:`BACKOFF_BASE` seconds up to
:data:`BACKOFF_CAP`), scheduled non-blockingly so other jobs keep
flowing.  A job whose deaths or hangs exhaust the scheduler's
``retries`` budget ends with its failure classification, so one poison
job can neither retry forever nor hold up the rest of the run: failing
jobs cost their retries, never an idle slot.

A run keeps all of its state in memory.  Nothing is journaled: a run
that dies is run again from the start, the one recovery that yields
the pinned answer.

Determinism: the report lists jobs in submission order keyed by job
ID, never completion order; busy seconds are load telemetry, excluded
from the deterministic body.  Every slot runs the scheduler's one
``executor`` (by default :func:`repro.fleet.jobs.execute_job`): a
worker process calls it on each job it receives, and inline mode
(``inline=True``) puts an in-process slot in each worker's place whose
``send`` calls it at once.  The same run loop and backoff drive both,
the inline one on an injectable clock, so scheduler tests run on a
:class:`repro.core.clock.FakeClock` with no real processes or stalls.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.clock import SYSTEM_CLOCK, Clock
from repro.fleet.jobs import Job, execute_job
from repro.fuzz.engine import task_rng

#: Exit classifications, in merge-severity order.
CLEAN = "clean"
VIOLATION = "violation"
CRASH = "crash"
HANG = "hang"

#: How long a parent result-wait blocks before re-checking liveness.
_POLL_SECONDS = 0.05

#: A retried job's first backoff, in seconds; each retry doubles it.
BACKOFF_BASE = 0.05
#: The longest backoff, in seconds, before jitter.
BACKOFF_CAP = 2.0


@dataclass
class JobOutcome:
    """One job's final disposition."""

    job: Job
    classification: str
    attempts: int = 1
    backoffs: List[float] = field(default_factory=list)
    payload: Optional[dict] = None
    detail: Optional[str] = None
    #: Load telemetry (CPU seconds) — never gated.
    busy_seconds: float = 0.0

    @property
    def violations(self) -> List[str]:
        if self.payload is None:
            return []
        return list(self.payload.get("violations", []))

    def to_json(self) -> dict:
        return {
            "id": self.job.job_id,
            "kind": self.job.kind,
            "classification": self.classification,
            "attempts": self.attempts,
            "backoffs": self.backoffs,
            "violations": self.violations,
            "detail": self.detail,
        }


class FleetReport:
    """Merged outcome of one fleet run.

    ``outcomes`` is in job submission order.  :meth:`to_json` is the
    deterministic body — byte-identical across worker counts; the busy
    seconds per worker, and the CPU figures derived from them, are load
    telemetry that legitimately varies run to run.
    """

    def __init__(
        self,
        outcomes: List[JobOutcome],
        *,
        worker_busy_seconds: Optional[List[float]] = None,
    ):
        self.outcomes = outcomes
        self.worker_busy_seconds = worker_busy_seconds or []

    @property
    def counts(self) -> Dict[str, int]:
        out = {CLEAN: 0, VIOLATION: 0, CRASH: 0, HANG: 0}
        for outcome in self.outcomes:
            out[outcome.classification] += 1
        return out

    @property
    def ok(self) -> bool:
        counts = self.counts
        return counts[CRASH] == 0 and counts[HANG] == 0

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for outcome in self.outcomes:
            out.extend(outcome.violations)
        return out

    @property
    def events(self) -> int:
        return sum(
            outcome.payload.get("events", 0)
            for outcome in self.outcomes
            if outcome.payload is not None
        )

    @property
    def serial_cpu_seconds(self) -> float:
        """Sum of per-job busy CPU — what one worker would have paid."""
        return sum(outcome.busy_seconds for outcome in self.outcomes)

    @property
    def critical_path_seconds(self) -> float:
        """Busiest worker's CPU — the floor an idle machine would pay."""
        if not self.worker_busy_seconds:
            return 0.0
        return max(self.worker_busy_seconds)

    @property
    def utilization(self) -> float:
        """Mean worker busy share of the critical path (1.0 = balanced)."""
        critical = self.critical_path_seconds
        if critical <= 0 or not self.worker_busy_seconds:
            return 0.0
        mean = sum(self.worker_busy_seconds) / len(self.worker_busy_seconds)
        return round(mean / critical, 6)

    def to_json(self) -> dict:
        return {
            "counts": self.counts,
            "ok": self.ok,
            "jobs": [outcome.to_json() for outcome in self.outcomes],
            "events": self.events,
        }


def backoff_delay(seed: int, name: str, attempt: int) -> float:
    """Capped exponential backoff with deterministic jitter.

    Jitter derives from ``(seed, name, attempt)``: two runs of the same
    job set schedule identical retries, so retry timing never makes a
    report irreproducible.
    """
    rng = task_rng(seed, "backoff", name, attempt)
    delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** attempt))
    return round(delay * (1.0 + 0.25 * rng.random()), 6)


# ----------------------------------------------------------------------
# Worker slots
# ----------------------------------------------------------------------


def _run_one(executor: Callable[[Job], dict], job: Job, clock) -> tuple:
    """Execute one job; (status, payload-or-error, busy CPU seconds)."""
    start = clock.process_time()
    try:
        payload = executor(job)
    except Exception as exc:
        return (
            "error",
            "{}: {}".format(type(exc).__name__, exc),
            clock.process_time() - start,
        )
    return ("ok", payload, clock.process_time() - start)


def _worker_main(conn, executor: Callable[[Job], dict]) -> None:
    """The child: one job in, its result out, until told to stop.

    It waits by polling, and leaves once re-parented: this child and
    every sibling forked after it hold copies of this pipe's parent
    end, so a dead parent does not read as EOF here.
    """
    parent = os.getppid()
    while True:
        if not conn.poll(1.0):
            if os.getppid() != parent:
                return
            continue
        entry = conn.recv()
        if entry is None:
            return
        conn.send(_run_one(executor, Job.from_json(entry), SYSTEM_CLOCK))


class _ProcessSlot:
    """One child process, running ``executor``, and the parent's end of
    its pipe."""

    def __init__(self, executor: Callable[[Job], dict]):
        import multiprocessing

        self._executor = executor
        self.conn, child = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(
            target=_worker_main, args=(child, executor), daemon=True
        )
        self.proc.start()
        # The child now holds the only copy of its end: its death reads
        # as EOF here.
        child.close()

    def alive(self) -> bool:
        return self.proc.is_alive()

    def send(self, job: Job) -> None:
        # A child that died since the last liveness check cannot take
        # the job; it is in flight already, so that check fails it like
        # any other death.
        with suppress(OSError):
            self.conn.send(job.to_json())

    def result(self) -> Optional[tuple]:
        """The result of the job sent last, or None while it runs."""
        try:
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            pass  # the child died before it sent one
        return None

    def respawn(self) -> "_ProcessSlot":
        """A fresh process and pipe in the same slot."""
        self.stop(kill=True)
        return _ProcessSlot(self._executor)

    def stop(self, *, kill: bool = False) -> None:
        if self.proc.is_alive():
            if kill:
                self.proc.kill()
            else:
                with suppress(OSError):
                    self.conn.send(None)
            self.proc.join(5.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join()
        self.conn.close()


class _InlineSlot:
    """A worker slot in this process: ``send`` runs the job at once."""

    def __init__(self, executor: Callable[[Job], dict], clock: Clock):
        self._executor = executor
        self._clock = clock
        self._done: Optional[tuple] = None

    def alive(self) -> bool:
        return True

    def send(self, job: Job) -> None:
        self._done = _run_one(self._executor, job, self._clock)

    def result(self) -> Optional[tuple]:
        done, self._done = self._done, None
        return done

    def respawn(self) -> "_InlineSlot":
        return self

    def stop(self, *, kill: bool = False) -> None:
        pass


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------


class FleetScheduler:
    """Run a job list on ``workers`` slots fed from one pending deque."""

    def __init__(
        self,
        jobs: List[Job],
        *,
        workers: int = 2,
        seed: int = 0,
        retries: int = 1,
        timeout: float = 120.0,
        clock: Optional[Clock] = None,
        inline: bool = False,
        executor: Optional[Callable[[Job], dict]] = None,
    ):
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job IDs in submission")
        self.jobs = list(jobs)
        self.workers = max(1, workers)
        self.seed = seed
        self.retries = retries
        self.timeout = timeout
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.inline = inline
        self.executor = executor if executor is not None else execute_job
        # -- scheduling state --
        self._pending: deque = deque()
        #: Per slot, the job in flight and when it was dispatched (its
        #: watchdog clock's start), or None while the slot is free.
        self._inflight: List[Optional[tuple]] = [None] * self.workers
        self._outcomes: Dict[str, JobOutcome] = {}
        self._attempts: Dict[str, int] = {}
        self._backoffs: Dict[str, List[float]] = {}
        #: (ready time, submission ordinal, job) — pending retries.
        self._retry_wait: List[tuple] = []
        self._ordinal = {job.job_id: index for index, job in enumerate(jobs)}
        self._busy: List[float] = [0.0] * self.workers
        self._slots: list = []

    # -- retries ---------------------------------------------------------

    def _push_retry_ready(self, now: float) -> None:
        """Move due retries to the back of the pending deque."""
        due = [item for item in self._retry_wait if item[0] <= now]
        if not due:
            return
        due.sort(key=lambda item: (item[0], item[1]))
        self._retry_wait = [item for item in self._retry_wait if item[0] > now]
        self._pending.extend(job for _, _, job in due)

    def _next_retry_at(self) -> Optional[float]:
        if not self._retry_wait:
            return None
        return min(item[0] for item in self._retry_wait)

    # -- outcome plumbing ------------------------------------------------

    def _finish(
        self,
        job: Job,
        classification: str,
        *,
        payload: Optional[dict] = None,
        detail: Optional[str] = None,
        busy: float = 0.0,
    ) -> None:
        job_id = job.job_id
        self._outcomes[job_id] = JobOutcome(
            job=job,
            classification=classification,
            attempts=self._attempts.get(job_id, 0) + 1,
            backoffs=self._backoffs.get(job_id, []),
            payload=payload,
            detail=detail,
            busy_seconds=busy,
        )

    def _classify_payload(self, payload: dict) -> str:
        return VIOLATION if payload.get("violations") else CLEAN

    # -- dispatch --------------------------------------------------------

    def _fill(self, now: float) -> None:
        """Hand every free, live slot the job at the pending head."""
        for worker, slot in enumerate(self._slots):
            if not self._pending:
                return
            if self._inflight[worker] is None and slot.alive():
                job = self._pending.popleft()
                self._inflight[worker] = (job, now)
                slot.send(job)

    # -- results ---------------------------------------------------------

    def _collect(self) -> None:
        """Wait briefly on busy process pipes, then absorb every result."""
        busy = [w for w in range(self.workers) if self._inflight[w]]
        if not self.inline:
            from multiprocessing.connection import wait

            wait([self._slots[w].conn for w in busy], timeout=_POLL_SECONDS)
        for worker in busy:
            self._absorb(worker, self._slots[worker].result())

    def _absorb(self, worker: int, result: Optional[tuple]) -> None:
        """Finish ``worker``'s job once its result is in.

        A job that raised finishes ``crash`` at once: only deaths and
        hangs are retried.
        """
        if result is None:
            return
        status, payload, busy = result
        job, _ = self._inflight[worker]
        self._inflight[worker] = None
        self._busy[worker] += busy
        if status == "ok":
            self._finish(
                job, self._classify_payload(payload), payload=payload,
                busy=busy,
            )
        else:
            self._finish(job, CRASH, detail=payload, busy=busy)

    def _check_liveness(self) -> None:
        """Respawn dead and hung workers; fail the job each one ran."""
        now = self.clock.monotonic()
        for worker, slot in enumerate(self._slots):
            running = self._inflight[worker]
            if not slot.alive():
                # Take the result the child sent before it died: a job
                # still in flight after that is the one it was running.
                self._absorb(worker, slot.result())
                if self._inflight[worker] is not None:
                    self._fail_running(
                        worker,
                        CRASH,
                        "worker {} died (exitcode {})".format(
                            worker, slot.proc.exitcode
                        ),
                        now,
                    )
                self._slots[worker] = slot.respawn()
            elif running is not None and now - running[1] > self.timeout:
                self._fail_running(
                    worker,
                    HANG,
                    "watchdog killed after {:.1f}s".format(self.timeout),
                    now,
                )
                # A hung process must die to reclaim the slot.
                self._slots[worker] = slot.respawn()

    def _fail_running(
        self, worker: int, classification: str, detail: str, now: float
    ) -> None:
        """Retry the job a dead or hung ``worker`` was running, after a
        deterministic backoff; finish it failed once out of retries."""
        job, _ = self._inflight[worker]
        self._inflight[worker] = None
        job_id = job.job_id
        attempt = self._attempts.get(job_id, 0)
        if attempt >= self.retries:
            self._finish(job, classification, detail=detail)
            return
        delay = backoff_delay(self.seed, job_id, attempt)
        self._attempts[job_id] = attempt + 1
        self._backoffs.setdefault(job_id, []).append(delay)
        self._retry_wait.append((now + delay, self._ordinal[job_id], job))

    # -- the run loop ----------------------------------------------------

    def run(self) -> FleetReport:
        self._pending = deque(self.jobs)
        if self.inline:
            self._slots = [
                _InlineSlot(self.executor, self.clock)
                for _ in range(self.workers)
            ]
        else:
            self._slots = [
                _ProcessSlot(self.executor) for _ in range(self.workers)
            ]
        try:
            self._loop()
        finally:
            for slot in self._slots:
                slot.stop()
        outcomes = [self._outcomes[job.job_id] for job in self.jobs]
        return FleetReport(outcomes, worker_busy_seconds=list(self._busy))

    def _loop(self) -> None:
        """Push due retries, fill free slots, collect results, check
        liveness; until done."""
        while len(self._outcomes) < len(self.jobs):
            now = self.clock.monotonic()
            self._push_retry_ready(now)
            self._fill(now)
            if any(self._inflight):
                self._collect()
            else:
                # Nothing running and nothing dispatchable: wait on the
                # clock for the next retry.
                retry_at = self._next_retry_at()
                if retry_at is not None:
                    self.clock.sleep(max(0.0, retry_at - now))
            self._check_liveness()
