"""The fleet dispatcher: jobs onto worker slots.

Topology: the parent owns one pending deque, in submission order, and
one duplex pipe per worker slot.  Each pass of the one run loop hands
every free, unblocked slot up to ``batch`` jobs from the head of the
deque; due retries and requeued jobs go to the back.  Workers are dumb
executors — a child process looping ``recv chunk -> execute_job ->
send result`` — so all scheduling state lives in one place and the
merge layer can be exact.

The scheduler is the one runner for watched work: in process mode
every job runs in a worker process under a wall-clock watchdog, and
``trace replay --timeout`` / ``fuzz run --timeout`` are fleet runs with
``retries=0``.  Exits are classified by construction — the
classification ladder ``clean`` / ``violation`` (from the payload),
``crash`` (a raised error or a dead worker), ``hang`` (a watchdog
kill), plus ``expired`` for jobs whose deadline passed before
dispatch.  A worker sends each job's result the moment that job
finishes, so a worker that dies loses no finished result and its
*oldest* in-flight job is the one that was running: that job crashes
and the rest are requeued.  A job over the watchdog timeout hangs;
both retry with capped deterministic backoff (:func:`backoff_delay`),
scheduled non-blockingly so other jobs keep flowing.  Backpressure is
a bounded in-flight count per worker: one dispatch chunk (``batch``,
default 1).

A job whose failures exhaust the scheduler's ``retries`` budget ends
with its failure classification, so one poison job can neither retry
forever nor hold up the rest of the run.  Per-worker circuit breakers
complement the ladder: consecutive crash/hang blame against one worker
slot past ``BREAKER_THRESHOLD`` opens its breaker — the slot stops
taking jobs (and a dead process slot is not respawned) until a capped
deterministic backoff elapses, then half-opens with one strike left.
One bad host degrades throughput instead of poisoning outcomes.

Batched IPC (``batch=K``): the parent gathers up to K jobs per
dispatch into one pipe message, cutting the per-job dispatch cost on
many-small-jobs workloads.  Batching is pure transport: jobs still
execute one at a time in the child, each result comes back on its own,
the watchdog and blame-the-oldest crash attribution see each chunk
member as an individual in-flight entry (a job's watchdog clock starts
when the job ahead of it finishes), and the report stays keyed by job
ID in submission order, so violation streams are byte-identical across
batch sizes and worker counts.

A run keeps all of its state in memory.  Nothing is journaled: a run
that dies is run again from the start, the one recovery that yields
the pinned answer.

Determinism: the report lists jobs in submission order keyed by job
ID, never completion order; requeues, busy seconds, worker
attribution, and breaker trips are load telemetry, excluded from the
deterministic body.  Inline mode (``inline=True``) puts an in-process
slot in each worker's place: its ``send`` runs the chunk through an
injectable executor at once, and the same run loop, backoff and
breakers drive it on an injectable clock, so scheduler tests run on a
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
#: Deadline passed before dispatch.
EXPIRED = "expired"

#: Consecutive crash/hang blames that open a worker slot's breaker, and
#: the capped backoff (seconds) it stays open for.
BREAKER_THRESHOLD = 3
BREAKER_BASE = 0.25
BREAKER_CAP = 30.0

#: How long a parent result-wait blocks before re-checking liveness.
_POLL_SECONDS = 0.05


@dataclass
class JobOutcome:
    """One job's final disposition."""

    job: Job
    classification: str
    attempts: int = 1
    backoffs: List[float] = field(default_factory=list)
    payload: Optional[dict] = None
    detail: Optional[str] = None
    #: Load telemetry (worker slot, CPU seconds) — never gated.
    worker: Optional[int] = None
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
    deterministic body — byte-identical across worker counts and batch
    sizes; :meth:`load_json` is the telemetry sidecar (requeues, busy
    seconds, utilization) that legitimately varies run to run.
    """

    def __init__(
        self,
        outcomes: List[JobOutcome],
        *,
        workers: int,
        requeues: int = 0,
        breaker_trips: Optional[List[int]] = None,
        worker_busy_seconds: Optional[List[float]] = None,
        wall_seconds: float = 0.0,
        spawn_seconds: float = 0.0,
    ):
        self.outcomes = outcomes
        self.workers = workers
        self.requeues = requeues
        self.breaker_trips = breaker_trips or []
        self.worker_busy_seconds = worker_busy_seconds or []
        self.wall_seconds = wall_seconds
        self.spawn_seconds = spawn_seconds

    @property
    def counts(self) -> Dict[str, int]:
        out = {CLEAN: 0, VIOLATION: 0, CRASH: 0, HANG: 0, EXPIRED: 0}
        for outcome in self.outcomes:
            out[outcome.classification] += 1
        return out

    @property
    def ok(self) -> bool:
        counts = self.counts
        return counts[CRASH] == 0 and counts[HANG] == 0 and counts[EXPIRED] == 0

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

    def load_json(self) -> dict:
        return {
            "workers": self.workers,
            "requeues": self.requeues,
            "breaker_trips": list(self.breaker_trips),
            "worker_busy_seconds": [
                round(seconds, 6) for seconds in self.worker_busy_seconds
            ],
            "serial_cpu_seconds": round(self.serial_cpu_seconds, 6),
            "critical_path_seconds": round(self.critical_path_seconds, 6),
            "utilization": self.utilization,
            "wall_seconds": round(self.wall_seconds, 6),
            "spawn_seconds": round(self.spawn_seconds, 6),
        }


def backoff_delay(
    seed: int, name: str, attempt: int, *, base: float, cap: float
) -> float:
    """Capped exponential backoff with deterministic jitter.

    Jitter derives from ``(seed, name, attempt)``: two runs of the same
    job set schedule identical retries, so retry timing never makes a
    report irreproducible.
    """
    rng = task_rng(seed, "backoff", name, attempt)
    delay = min(cap, base * (2 ** attempt))
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


def _worker_main(conn) -> None:
    """The child: one chunk in, one message out per finished job.

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
        chunk = conn.recv()
        if chunk is None:
            return
        for entry in chunk:
            conn.send(
                _run_one(execute_job, Job.from_json(entry), SYSTEM_CLOCK)
            )


class _ProcessSlot:
    """One child process and the parent's end of its pipe."""

    def __init__(self):
        import multiprocessing

        self.conn, child = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(
            target=_worker_main, args=(child,), daemon=True
        )
        self.proc.start()
        # The child now holds the only copy of its end: its death reads
        # as EOF here.
        child.close()

    def alive(self) -> bool:
        return self.proc.is_alive()

    def send(self, jobs: List[Job]) -> None:
        # A child that died since the last liveness check cannot take
        # the chunk; it is in flight already, so that check
        # reclassifies it like any other death.
        with suppress(OSError):
            self.conn.send([job.to_json() for job in jobs])

    def results(self) -> List[tuple]:
        """Every result on the pipe, in the order the jobs finished."""
        out = []
        try:
            while self.conn.poll():
                out.append(self.conn.recv())
        except (EOFError, OSError):
            pass  # the child is gone: its finished results are above
        return out

    def respawn(self) -> "_ProcessSlot":
        """A fresh process and pipe in the same slot."""
        self.stop(kill=True)
        return _ProcessSlot()

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
    """A worker slot in this process: ``send`` runs the chunk at once."""

    def __init__(self, executor: Callable[[Job], dict], clock: Clock):
        self._executor = executor
        self._clock = clock
        self._done: List[tuple] = []

    def alive(self) -> bool:
        return True

    def send(self, jobs: List[Job]) -> None:
        for job in jobs:
            self._done.append(_run_one(self._executor, job, self._clock))

    def results(self) -> List[tuple]:
        done, self._done = self._done, []
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
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        timeout: float = 120.0,
        batch: int = 1,
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
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        self.batch = max(1, int(batch))
        self.spawn_seconds = 0.0
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.inline = inline
        self.executor = executor if executor is not None else execute_job
        # -- scheduling state --
        self._pending: deque = deque()
        #: Per slot, (job, watchdog start) in dispatch order: the head
        #: job's clock starts at dispatch or when the job ahead ends.
        self._inflight: List[List[tuple]] = [[] for _ in range(self.workers)]
        self._outcomes: Dict[str, JobOutcome] = {}
        self._attempts: Dict[str, int] = {}
        self._backoffs: Dict[str, List[float]] = {}
        #: (ready time, submission ordinal, job) — pending retries.
        self._retry_wait: List[tuple] = []
        self._ordinal = {job.job_id: index for index, job in enumerate(jobs)}
        self.requeues = 0
        self._busy: List[float] = [0.0] * self.workers
        self._slots: list = []
        # -- circuit breaker state (per worker slot) --
        self._blame: List[int] = [0] * self.workers
        self._breaker_open: List[bool] = [False] * self.workers
        self._breaker_until: List[float] = [0.0] * self.workers
        self.breaker_trips: List[int] = [0] * self.workers

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

    # -- circuit breaker -------------------------------------------------

    def _note_failure(self, worker: int, now: float) -> None:
        """One crash/hang blamed on ``worker``; trip past the threshold."""
        self._blame[worker] += 1
        if (
            self._blame[worker] >= BREAKER_THRESHOLD
            and not self._breaker_open[worker]
        ):
            delay = backoff_delay(
                self.seed,
                "breaker:w{}".format(worker),
                self.breaker_trips[worker],
                base=BREAKER_BASE,
                cap=BREAKER_CAP,
            )
            self.breaker_trips[worker] += 1
            self._breaker_open[worker] = True
            self._breaker_until[worker] = now + delay

    def _note_success(self, worker: int) -> None:
        self._blame[worker] = 0

    def _breaker_blocks(self, worker: int, now: float) -> bool:
        return self._breaker_open[worker] and now < self._breaker_until[worker]

    def _reopen_breakers(self, now: float) -> None:
        """Half-open elapsed breakers: one strike re-trips immediately.

        In process mode a quarantined slot whose process died was not
        respawned while open; respawn it now that it may take jobs again.
        """
        for worker in range(self.workers):
            if not self._breaker_open[worker]:
                continue
            if now < self._breaker_until[worker]:
                continue
            self._breaker_open[worker] = False
            self._blame[worker] = BREAKER_THRESHOLD - 1
            slot = self._slots[worker]
            if not slot.alive():
                self._slots[worker] = slot.respawn()

    def _next_breaker_at(self) -> Optional[float]:
        until = [
            self._breaker_until[worker]
            for worker in range(self.workers)
            if self._breaker_open[worker]
        ]
        return min(until) if until else None

    # -- outcome plumbing ------------------------------------------------

    def _finish(
        self,
        job: Job,
        classification: str,
        *,
        payload: Optional[dict] = None,
        detail: Optional[str] = None,
        worker: Optional[int] = None,
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
            worker=worker,
            busy_seconds=busy,
        )

    def _retry_or_finish(
        self,
        job: Job,
        classification: str,
        *,
        detail: Optional[str],
        worker: int,
        busy: float,
        now: float,
    ) -> None:
        job_id = job.job_id
        attempt = self._attempts.get(job_id, 0)
        if attempt < self.retries:
            delay = backoff_delay(
                self.seed,
                job_id,
                attempt,
                base=self.backoff_base,
                cap=self.backoff_cap,
            )
            self._attempts[job_id] = attempt + 1
            self._backoffs.setdefault(job_id, []).append(delay)
            self._retry_wait.append(
                (now + delay, self._ordinal[job_id], job)
            )
            return
        self._attempts[job_id] = attempt
        self._finish(
            job, classification, detail=detail, worker=worker, busy=busy
        )

    def _classify_payload(self, payload: dict) -> str:
        return VIOLATION if payload.get("violations") else CLEAN

    # -- dispatch --------------------------------------------------------

    def _fill(self, now: float, started: float) -> None:
        """Hand every free, unblocked slot jobs from the pending head."""
        for worker, slot in enumerate(self._slots):
            if self._breaker_blocks(worker, now) or not slot.alive():
                continue
            inflight = self._inflight[worker]
            while self._pending and len(inflight) < self.batch:
                take = min(self.batch - len(inflight), len(self._pending))
                chunk = [self._pending.popleft() for _ in range(take)]
                self._dispatch_chunk(worker, chunk, now, started)

    def _dispatch_chunk(
        self, worker: int, chunk: List[Job], now: float, started: float
    ) -> None:
        """Dispatch a chunk: one message to the slot.

        Deadline-expired jobs are finished on the spot; the surviving
        jobs are entered individually into the in-flight ledger (so the
        watchdog and crash attribution see them one by one) and sent to
        the slot as one message.
        """
        live = []
        for job in chunk:
            if job.deadline is not None and (now - started) > job.deadline:
                self._finish(
                    job,
                    EXPIRED,
                    detail="deadline {}s passed before dispatch".format(
                        job.deadline
                    ),
                    worker=worker,
                )
            else:
                live.append(job)
        if not live:
            return
        for job in live:
            self._inflight[worker].append((job, now))
        self._slots[worker].send(live)

    # -- results ---------------------------------------------------------

    def _collect(self) -> None:
        """Wait briefly on busy process pipes, then absorb every result."""
        busy = [w for w in range(self.workers) if self._inflight[w]]
        if not self.inline:
            from multiprocessing.connection import wait

            wait([self._slots[w].conn for w in busy], timeout=_POLL_SECONDS)
        for worker in busy:
            self._absorb(worker, self._slots[worker].results())

    def _absorb(self, worker: int, results: List[tuple]) -> None:
        """Finish or retry ``worker``'s finished jobs, oldest first."""
        inflight = self._inflight[worker]
        for status, payload, busy in results:
            # A slot runs its jobs in dispatch order, so each result
            # belongs to its oldest job still in flight.
            job, _ = inflight.pop(0)
            if inflight:
                # The slot starts its next job as this one ends: that
                # job's watchdog clock starts now, not at dispatch.
                inflight[0] = (inflight[0][0], self.clock.monotonic())
            self._busy[worker] += busy
            if status == "ok":
                self._note_success(worker)
                self._finish(
                    job,
                    self._classify_payload(payload),
                    payload=payload,
                    worker=worker,
                    busy=busy,
                )
            else:
                now = self.clock.monotonic()
                self._note_failure(worker, now)
                self._retry_or_finish(
                    job,
                    CRASH,
                    detail=payload,
                    worker=worker,
                    busy=busy,
                    now=now,
                )

    def _check_liveness(self) -> None:
        """Handle dead workers and watchdog-expired jobs.

        A slot whose breaker trips here is quarantined: its in-flight
        work is reclassified (blame the oldest, requeue the rest) but
        the process is *not* respawned until the breaker half-opens —
        a flapping host gets capped deterministic backoff, not a
        respawn-crash hot loop.
        """
        now = self.clock.monotonic()
        for worker, slot in enumerate(self._slots):
            inflight = self._inflight[worker]
            if not slot.alive():
                # Take what the dead child finished first: the oldest
                # job left in flight is then the one that was running.
                self._absorb(worker, slot.results())
                if inflight:
                    self._blame_oldest(
                        worker,
                        CRASH,
                        "worker {} died (exitcode {})".format(
                            worker, slot.proc.exitcode
                        ),
                        now,
                    )
                if not self._breaker_blocks(worker, now):
                    self._slots[worker] = slot.respawn()
            elif inflight and now - inflight[0][1] > self.timeout:
                self._blame_oldest(
                    worker,
                    HANG,
                    "watchdog killed after {:.1f}s".format(self.timeout),
                    now,
                )
                # A hung process must die to reclaim the slot; whether
                # the fresh process may take jobs is the breaker's call.
                self._slots[worker] = slot.respawn()

    def _blame_oldest(
        self, worker: int, classification: str, detail: str, now: float
    ) -> None:
        """Fail ``worker``'s oldest in-flight job; requeue the rest."""
        inflight = self._inflight[worker]
        (victim, _), rest = inflight[0], inflight[1:]
        inflight.clear()
        for job, _ in rest:
            self.requeues += 1
            self._pending.append(job)
        self._note_failure(worker, now)
        self._retry_or_finish(
            victim,
            classification,
            detail=detail,
            worker=worker,
            busy=0.0,
            now=now,
        )

    # -- the run loop ----------------------------------------------------

    def run(self) -> FleetReport:
        self._pending = deque(self.jobs)
        started = self.clock.monotonic()
        if self.inline:
            self._slots = [
                _InlineSlot(self.executor, self.clock)
                for _ in range(self.workers)
            ]
        else:
            self._slots = [_ProcessSlot() for _ in range(self.workers)]
            self.spawn_seconds = self.clock.monotonic() - started
        try:
            self._loop(started)
        finally:
            for slot in self._slots:
                slot.stop()
        wall = self.clock.monotonic() - started
        outcomes = [self._outcomes[job.job_id] for job in self.jobs]
        return FleetReport(
            outcomes,
            workers=self.workers,
            requeues=self.requeues,
            breaker_trips=list(self.breaker_trips),
            worker_busy_seconds=list(self._busy),
            wall_seconds=wall,
            spawn_seconds=self.spawn_seconds,
        )

    def _loop(self, started: float) -> None:
        """Push due retries, reopen breakers, fill free slots, collect
        results, check liveness; until done."""
        while len(self._outcomes) < len(self.jobs):
            now = self.clock.monotonic()
            self._push_retry_ready(now)
            self._reopen_breakers(now)
            self._fill(now, started)
            if any(self._inflight):
                self._collect()
            else:
                # Nothing running and nothing dispatchable: wait on the
                # clock for the next retry or breaker reopen.
                waits = [
                    at
                    for at in (self._next_retry_at(), self._next_breaker_at())
                    if at is not None
                ]
                if waits:
                    self.clock.sleep(max(0.0, min(waits) - now))
            self._check_liveness()
