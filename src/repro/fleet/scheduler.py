"""The work-stealing scheduler: jobs onto multiprocessing workers.

Topology: the parent owns one deque per worker; jobs distribute
round-robin by submission index, and a worker that drains its own
deque steals the back half of the richest victim's deque (classic
steal-half, ties to the lowest worker index).  Workers themselves are
dumb executors — a child process looping ``inbox.get() ->
execute_job -> results.put`` — so all scheduling state lives in one
place and the merge layer can be exact.

The scheduler is the one runner for watched work: in process mode
every job runs in a worker process under a wall-clock watchdog, and
``trace replay --timeout`` / ``fuzz run --timeout`` are fleet runs with
``retries=0``.  Exits are classified by construction — the
classification ladder ``clean`` / ``violation`` (from the payload),
``crash`` (a raised error or a dead worker), ``hang`` (a watchdog
kill), plus ``expired`` for jobs whose deadline passed before
dispatch: a worker that dies mid-job crashes the *oldest*
in-flight job and requeues the rest; a job over the watchdog timeout
hangs; both retry with capped deterministic backoff
(:func:`backoff_delay`), scheduled non-blockingly so other jobs keep
flowing.  Backpressure is a bounded in-flight count per worker: one
dispatch chunk (``batch``, default 1, which also makes crash
attribution exact — with more, the non-oldest in-flight jobs are
requeued, not blamed).

Poison handling: a job whose failures exhaust its attempt budget
(``job.max_attempts``, else scheduler ``retries``) is *dead-lettered* —
finished with its failure classification, flagged ``dead_lettered``,
and recorded in the queue's dead-letter section instead of acked — so
one poison job can neither retry forever nor block ``fleet drain``.
Per-worker circuit breakers complement the ladder: consecutive
crash/hang blame against one worker slot past ``BREAKER_THRESHOLD``
opens its breaker — the slot stops leasing (and a dead process slot is
not respawned) until a capped deterministic backoff elapses, then
half-opens with one strike left.  One bad host degrades throughput
instead of poisoning outcomes.

Batched IPC (``batch=K``): the parent gathers up to K jobs per
dispatch — one targeted :meth:`JobQueue.lease_jobs` journal append and
one inbox message for the whole chunk — and the worker ships the
chunk's results back as one message, cutting the per-job round-trip
and journal cost to ~1/K on many-small-jobs workloads.  Batching is
pure transport: jobs still execute one at a time in the child, the
watchdog and blame-the-oldest crash attribution see each chunk member
as an individual in-flight entry, and the report stays keyed by job ID
in submission order, so violation streams are byte-identical across
batch sizes and worker counts.  With a group-commit queue the run loop
pumps :meth:`JobQueue.maybe_flush_acks` each poll and drains the
durability window with a :meth:`JobQueue.flush_acks` barrier before
the report is built — the report never claims completions the journal
has not fsynced.

Determinism: the report lists jobs in submission order keyed by job
ID, never completion order; steal counts, busy seconds, worker
attribution, and breaker trips are load telemetry, excluded from the
deterministic body.  Inline mode (``inline=True``) runs the same
deque/steal/backoff/breaker logic synchronously in-process against an
injectable executor and clock, so scheduler tests run on a
:class:`repro.core.clock.FakeClock` with no real processes or stalls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.clock import SYSTEM_CLOCK, Clock
from repro.fleet.jobs import Job, execute_job
from repro.fleet.queue import JobQueue
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
    #: True when the job exhausted its attempt budget and moved to the
    #: dead-letter section instead of acking.
    dead_lettered: bool = False
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
            "dead_lettered": self.dead_lettered,
        }


class FleetReport:
    """Merged outcome of one fleet run.

    ``outcomes`` is in job submission order.  :meth:`to_json` is the
    deterministic body — byte-identical across worker counts and steal
    interleavings; :meth:`load_json` is the telemetry sidecar (steals,
    busy seconds, utilization) that legitimately varies run to run.
    """

    def __init__(
        self,
        outcomes: List[JobOutcome],
        *,
        workers: int,
        steals: int = 0,
        stolen_jobs: int = 0,
        requeues: int = 0,
        skipped_acked: int = 0,
        skipped_dead: int = 0,
        breaker_trips: Optional[List[int]] = None,
        worker_busy_seconds: Optional[List[float]] = None,
        wall_seconds: float = 0.0,
        spawn_seconds: float = 0.0,
    ):
        self.outcomes = outcomes
        self.workers = workers
        self.steals = steals
        self.stolen_jobs = stolen_jobs
        self.requeues = requeues
        self.skipped_acked = skipped_acked
        self.skipped_dead = skipped_dead
        self.breaker_trips = breaker_trips or []
        self.worker_busy_seconds = worker_busy_seconds or []
        self.wall_seconds = wall_seconds
        self.spawn_seconds = spawn_seconds

    @property
    def counts(self) -> Dict[str, int]:
        out = {
            CLEAN: 0, VIOLATION: 0, CRASH: 0, HANG: 0, EXPIRED: 0,
            "dead_letter": 0,
        }
        for outcome in self.outcomes:
            out[outcome.classification] += 1
            if outcome.dead_lettered:
                out["dead_letter"] += 1
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
            "steals": self.steals,
            "stolen_jobs": self.stolen_jobs,
            "requeues": self.requeues,
            "skipped_acked": self.skipped_acked,
            "skipped_dead": self.skipped_dead,
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
# Worker child
# ----------------------------------------------------------------------


def _run_one(job: Job, clock) -> tuple:
    """Execute one job; (job_id, status, payload-or-error, busy)."""
    start = clock.process_time()
    try:
        payload = execute_job(job)
    except BaseException as exc:
        return (
            job.job_id,
            "error",
            "{}: {}".format(type(exc).__name__, exc),
            clock.process_time() - start,
        )
    return (job.job_id, "ok", payload, clock.process_time() - start)


def _worker_main(worker_index: int, inbox, results) -> None:
    from repro.core.clock import SYSTEM_CLOCK as clock

    while True:
        item = inbox.get()
        if item is None:
            break
        if isinstance(item, list):
            # A batched dispatch: execute sequentially, ship one
            # result message for the whole chunk.
            jobs = [Job.from_json(entry) for entry in item]
            results.put(
                (worker_index, [_run_one(job, clock) for job in jobs])
            )
            continue
        job_id, status, payload, busy = _run_one(Job.from_json(item), clock)
        results.put((worker_index, job_id, status, payload, busy))


class _ProcessWorker:
    """One child process plus its private inbox."""

    def __init__(self, index: int, results):
        import multiprocessing

        self.index = index
        self._results = results
        self.inbox = multiprocessing.Queue()
        self.proc = multiprocessing.Process(
            target=_worker_main,
            args=(index, self.inbox, results),
            daemon=True,
        )
        self.proc.start()

    def alive(self) -> bool:
        return self.proc.is_alive()

    def send(self, job: Job) -> None:
        self.inbox.put(job.to_json())

    def send_batch(self, jobs: List[Job]) -> None:
        """One inbox message carrying a whole chunk of jobs."""
        self.inbox.put([job.to_json() for job in jobs])

    def respawn(self) -> "_ProcessWorker":
        """A fresh process + inbox in the same slot (old inbox dropped)."""
        self.stop(kill=True)
        return _ProcessWorker(self.index, self._results)

    def stop(self, *, kill: bool = False) -> None:
        if self.proc.is_alive():
            if kill:
                self.proc.kill()
            else:
                self.inbox.put(None)
            self.proc.join(5.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join()
        self.inbox.close()
        self.inbox.join_thread()


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------


class FleetScheduler:
    """Run a job list on ``workers`` processes with work stealing."""

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
        queue: Optional[JobQueue] = None,
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
        self.queue = queue
        self.inline = inline
        self.executor = executor if executor is not None else execute_job
        # -- scheduling state --
        self._deques: List[deque] = [deque() for _ in range(self.workers)]
        self._inflight: List[List[tuple]] = [[] for _ in range(self.workers)]
        self._outcomes: Dict[str, JobOutcome] = {}
        self._attempts: Dict[str, int] = {}
        self._backoffs: Dict[str, List[float]] = {}
        #: (ready time, submission ordinal, job) — pending retries.
        self._retry_wait: List[tuple] = []
        self._ordinal = {job.job_id: index for index, job in enumerate(jobs)}
        self.steals = 0
        self.stolen_jobs = 0
        self.requeues = 0
        self.skipped_acked = 0
        self.skipped_dead = 0
        self._busy: List[float] = [0.0] * self.workers
        self._procs: List[Optional[_ProcessWorker]] = [None] * self.workers
        # -- circuit breaker state (per worker slot) --
        self._blame: List[int] = [0] * self.workers
        self._breaker_open: List[bool] = [False] * self.workers
        self._breaker_until: List[float] = [0.0] * self.workers
        self.breaker_trips: List[int] = [0] * self.workers

    # -- deque mechanics -------------------------------------------------

    def _distribute(self) -> None:
        for index, job in enumerate(self.jobs):
            self._deques[index % self.workers].append(job)

    def _steal(self, thief: int) -> bool:
        """Move the back half of the richest victim's deque to ``thief``."""
        victim = -1
        richest = 0
        for index, dq in enumerate(self._deques):
            if index != thief and len(dq) > richest:
                victim = index
                richest = len(dq)
        if victim < 0:
            return False
        take = (richest + 1) // 2
        chunk = [self._deques[victim].pop() for _ in range(take)]
        chunk.reverse()  # keep the stolen run in original order
        self._deques[thief].extend(chunk)
        self.steals += 1
        self.stolen_jobs += take
        return True

    def _next_job(self, worker: int) -> Optional[Job]:
        dq = self._deques[worker]
        if not dq and not self._steal(worker):
            return None
        return dq.popleft()

    def _push_retry_ready(self, now: float) -> None:
        """Move due retries onto the emptiest deque."""
        due = [item for item in self._retry_wait if item[0] <= now]
        if not due:
            return
        due.sort(key=lambda item: (item[0], item[1]))
        self._retry_wait = [item for item in self._retry_wait if item[0] > now]
        for _, _, job in due:
            target = min(
                range(self.workers), key=lambda w: len(self._deques[w])
            )
            self._deques[target].append(job)

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
        respawned while open; respawn it now that it may lease again.
        """
        for worker in range(self.workers):
            if not self._breaker_open[worker]:
                continue
            if now < self._breaker_until[worker]:
                continue
            self._breaker_open[worker] = False
            self._blame[worker] = BREAKER_THRESHOLD - 1
            proc = self._procs[worker]
            if proc is not None and not proc.alive():
                self._procs[worker] = proc.respawn()

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
        failed = classification in (CRASH, HANG, EXPIRED)
        self._outcomes[job_id] = JobOutcome(
            job=job,
            classification=classification,
            attempts=self._attempts.get(job_id, 0) + 1,
            backoffs=self._backoffs.get(job_id, []),
            payload=payload,
            detail=detail,
            dead_lettered=failed,
            worker=worker,
            busy_seconds=busy,
        )
        worker_name = "w{}".format(worker if worker is not None else 0)
        if self.queue is not None:
            if failed:
                # A job that exhausted its attempts is poison: record
                # it in the dead-letter section, not as completed, so
                # the next drain neither re-runs it nor blocks on it.
                self.queue.dead_letter(
                    job_id, worker_name, detail or classification
                )
            else:
                self.queue.ack(job_id, worker_name)

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
        budget = (
            self.retries
            if job.max_attempts is None
            else max(0, job.max_attempts - 1)
        )
        if attempt < budget:
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
            if self.queue is not None:
                self.queue.requeue(job_id)
            return
        self._attempts[job_id] = attempt
        self._finish(
            job, classification, detail=detail, worker=worker, busy=busy
        )

    def _classify_payload(self, payload: dict) -> str:
        return VIOLATION if payload.get("violations") else CLEAN

    # -- dispatch --------------------------------------------------------

    def _dispatch_chunk(
        self, worker: int, chunk: List[Job], now: float, started: float
    ) -> List[Job]:
        """Dispatch a chunk: one lease record, one IPC message.

        Deadline-expired jobs are finished on the spot; the surviving
        jobs are leased in one batched journal append, entered
        individually into the in-flight ledger (so the watchdog and
        crash attribution see them one by one), and shipped as a single
        inbox message.  Returns the jobs actually dispatched.
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
            return []
        if self.queue is not None:
            self.queue.lease_jobs(
                [job.job_id for job in live],
                "w{}".format(worker),
                ttl=2 * self.timeout,
                now=now,
            )
        for job in live:
            self._inflight[worker].append((job, now))
        if not self.inline:
            if len(live) == 1:
                self._procs[worker].send(live[0])
            else:
                self._procs[worker].send_batch(live)
        return live

    # -- the run loops ---------------------------------------------------

    def run(self) -> FleetReport:
        if self.queue is not None:
            for job in self.jobs:
                self.queue.enqueue(job)
            acked = set(self.queue.acked_ids())
            dead = set(self.queue.dead_ids())
            if acked or dead:
                # Resuming on an existing journal: jobs it already
                # recorded as acked are complete — re-running them
                # would duplicate results (every re-completion lands
                # as a duplicate ack) — and dead-lettered jobs are
                # poison until deliberately requeued (fleet dlq).
                self.jobs = [
                    job
                    for job in self.jobs
                    if job.job_id not in acked and job.job_id not in dead
                ]
                kept = {job.job_id for job in self.jobs}
                self.skipped_acked = sum(
                    1 for job_id in self._ordinal
                    if job_id in acked and job_id not in kept
                )
                self.skipped_dead = sum(
                    1 for job_id in self._ordinal
                    if job_id in dead and job_id not in kept
                )
        self._distribute()
        started = self.clock.monotonic()
        if self.inline:
            self._run_inline(started)
        else:
            self._run_processes(started)
        if self.queue is not None:
            # Durability barrier: the report below claims completions,
            # so any open group-commit window must reach the platter
            # first.
            self.queue.flush_acks()
        wall = self.clock.monotonic() - started
        outcomes = [self._outcomes[job.job_id] for job in self.jobs]
        return FleetReport(
            outcomes,
            workers=self.workers,
            steals=self.steals,
            stolen_jobs=self.stolen_jobs,
            requeues=self.requeues,
            skipped_acked=self.skipped_acked,
            skipped_dead=self.skipped_dead,
            breaker_trips=list(self.breaker_trips),
            worker_busy_seconds=list(self._busy),
            wall_seconds=wall,
            spawn_seconds=self.spawn_seconds,
        )

    # -- inline mode (deterministic, FakeClock-friendly) -----------------

    def _run_inline(self, started: float) -> None:
        cursor = 0
        while len(self._outcomes) < len(self.jobs):
            now = self.clock.monotonic()
            self._push_retry_ready(now)
            self._reopen_breakers(now)
            if self.queue is not None:
                self.queue.maybe_flush_acks()
            chunk: List[Job] = []
            worker = cursor
            for offset in range(self.workers):
                candidate = (cursor + offset) % self.workers
                if self._breaker_blocks(candidate, now):
                    continue
                while len(chunk) < self.batch:
                    job = self._next_job(candidate)
                    if job is None:
                        break
                    chunk.append(job)
                if chunk:
                    worker = candidate
                    break
            if not chunk:
                waits = [
                    at
                    for at in (self._next_retry_at(), self._next_breaker_at())
                    if at is not None
                ]
                if not waits:
                    break  # unreachable: every job has an outcome path
                self.clock.sleep(max(0.0, min(waits) - now))
                continue
            live = self._dispatch_chunk(worker, chunk, now, started)
            for job in live:
                self._inflight[worker] = [
                    pair
                    for pair in self._inflight[worker]
                    if pair[0] is not job
                ]
                start_cpu = self.clock.process_time()
                try:
                    payload = self.executor(job)
                except Exception as exc:
                    busy = self.clock.process_time() - start_cpu
                    self._busy[worker] += busy
                    now = self.clock.monotonic()
                    self._note_failure(worker, now)
                    self._retry_or_finish(
                        job,
                        CRASH,
                        detail="{}: {}".format(type(exc).__name__, exc),
                        worker=worker,
                        busy=busy,
                        now=now,
                    )
                else:
                    busy = self.clock.process_time() - start_cpu
                    self._busy[worker] += busy
                    self._note_success(worker)
                    self._finish(
                        job,
                        self._classify_payload(payload),
                        payload=payload,
                        worker=worker,
                        busy=busy,
                    )
            cursor = (worker + 1) % self.workers

    # -- process mode ----------------------------------------------------

    def _run_processes(self, started: float) -> None:
        import multiprocessing
        import queue as stdqueue

        results = multiprocessing.Queue()
        spawn_start = self.clock.monotonic()
        self._procs = [
            _ProcessWorker(index, results) for index in range(self.workers)
        ]
        self.spawn_seconds = self.clock.monotonic() - spawn_start
        by_id = {job.job_id: job for job in self.jobs}
        try:
            while len(self._outcomes) < len(self.jobs):
                now = self.clock.monotonic()
                self._push_retry_ready(now)
                self._reopen_breakers(now)
                if self.queue is not None:
                    self.queue.maybe_flush_acks()
                for worker in range(self.workers):
                    proc = self._procs[worker]
                    if self._breaker_blocks(worker, now) or not proc.alive():
                        continue
                    while len(self._inflight[worker]) < self.batch:
                        chunk = []
                        while (
                            len(self._inflight[worker]) + len(chunk)
                            < self.batch
                        ):
                            job = self._next_job(worker)
                            if job is None:
                                break
                            chunk.append(job)
                        if not chunk:
                            break
                        self._dispatch_chunk(worker, chunk, now, started)
                try:
                    item = results.get(timeout=_POLL_SECONDS)
                except stdqueue.Empty:
                    self._check_liveness(by_id)
                    continue
                worker = item[0]
                if len(item) == 2:
                    chunk_results = item[1]
                else:
                    chunk_results = [item[1:]]
                for job_id, status, payload, busy in chunk_results:
                    entry = next(
                        (
                            pair
                            for pair in self._inflight[worker]
                            if pair[0].job_id == job_id
                        ),
                        None,
                    )
                    self._busy[worker] += busy
                    if entry is None:
                        # The dispatch behind this result was already
                        # reclassified by _check_liveness (worker death
                        # or watchdog) and the job finished, awaits a
                        # retry, or was requeued.  Finishing from the
                        # stale result would leave that duplicate retry
                        # to re-run and overwrite the outcome, so drop
                        # it.
                        continue
                    self._inflight[worker].remove(entry)
                    job = by_id[job_id]
                    if job_id in self._outcomes:
                        continue  # late duplicate from a pre-kill put
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
        finally:
            for proc in self._procs:
                if proc is not None:
                    proc.stop()
            results.close()
            results.join_thread()

    def _check_liveness(self, by_id: Dict[str, Job]) -> None:
        """Handle dead workers and watchdog-expired jobs.

        A slot whose breaker trips here is quarantined: its in-flight
        work is reclassified (blame the oldest, requeue the rest) but
        the process is *not* respawned until the breaker half-opens —
        a flapping host gets capped deterministic backoff, not a
        respawn-crash hot loop.
        """
        now = self.clock.monotonic()
        for worker in range(self.workers):
            proc = self._procs[worker]
            inflight = self._inflight[worker]
            if not proc.alive():
                if inflight:
                    # Blame the oldest in-flight job; requeue the rest
                    # (they were behind it in the dead worker's inbox).
                    inflight.sort(key=lambda pair: pair[1])
                    (victim, _), rest = inflight[0], inflight[1:]
                    self._inflight[worker] = []
                    for job, _ in rest:
                        self.requeues += 1
                        if self.queue is not None:
                            self.queue.requeue(job.job_id)
                        self._deques[worker].append(job)
                    self._note_failure(worker, now)
                    self._retry_or_finish(
                        victim,
                        CRASH,
                        detail="worker {} died (exitcode {})".format(
                            worker, proc.proc.exitcode
                        ),
                        worker=worker,
                        busy=0.0,
                        now=now,
                    )
                if self._breaker_blocks(worker, now):
                    continue  # quarantined: respawn deferred to reopen
                self._procs[worker] = proc.respawn()
                continue
            hung = [
                pair for pair in inflight if now - pair[1] > self.timeout
            ]
            if hung:
                self._inflight[worker] = []
                for job, _ in inflight:
                    if job is not hung[0][0]:
                        self.requeues += 1
                        if self.queue is not None:
                            self.queue.requeue(job.job_id)
                        self._deques[worker].append(job)
                self._note_failure(worker, now)
                self._retry_or_finish(
                    hung[0][0],
                    HANG,
                    detail="watchdog killed after {:.1f}s".format(
                        self.timeout
                    ),
                    worker=worker,
                    busy=0.0,
                    now=now,
                )
                # A hung process must die to reclaim the slot; whether
                # the fresh process may lease is the breaker's call.
                self._procs[worker] = proc.respawn()
