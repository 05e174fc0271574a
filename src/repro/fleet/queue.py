"""The crash-safe persistent job queue.

The queue is an append-only journal in the shared length-prefixed
format of :mod:`repro.core.journal`.  Records this queue writes are
**v2** (CRC32-checksummed, ``"<byte_len> <crc32> <json>\\n"``); v1
checksum-less journals written by older queues still load, because the
scanner detects the version per record.  All file traffic goes through
an injectable :class:`repro.core.store.Store`, so chaos harnesses can
replay the exact write log under injected storage faults.

Damage on reopen is classified, matching trace-journal recovery
semantics:

- **torn tail** (an append cut mid-record by SIGKILL/short write):
  warn, truncate the tail away, and continue — everything before the
  tear is exactly what a clean close would have written;
- **mid-file corruption** (bytes damaged between valid records — bit
  rot, bad sector): the journal is quarantined to ``<path>.corrupt``
  and :class:`QueueCorruptionError` raised.  No prefix of a corrupted
  file is trustworthy, so loading part of it would be silently wrong.

Lifecycle records after the header:

- ``["q", <job json>]`` — enqueued (idempotent by job ID);
- ``["L", [<job id>...], <worker>, <expiry>]`` — leased until
  ``expiry``: one record per lease call, however many jobs it takes
  (a scheduler batch of K jobs is one journal append, not K).  Older
  queues also wrote a single-job ``["l", <job id>, <worker>,
  <expiry>]``; the loader still reads it, nothing writes it;
- ``["a", <job id>, <worker>]`` — acked (completed);
- ``["r", <job id>]`` — requeued (lease expired, worker died, or a
  dead-letter job deliberately resurrected);
- ``["d", <job id>, <worker>, <reason>]`` — dead-lettered (poison:
  failed ``max_attempts`` times);
- ``["s", <snapshot>]`` — a compaction snapshot folding the entire
  history before it into one record.

Acks and dead-letters are the durability-critical records.  They are
appended immediately and their fsync is *group-committed*: a
disposition waits in an open durability window until
``group_max_batch`` dispositions accumulate, ``group_max_delay_ms``
elapses (pumped via :meth:`maybe_flush_acks`), or an explicit
:meth:`flush_acks` barrier.  A disposition that the rolling
``sync_every`` fsync already covered never enters the window.  An ack
is only **reported durable** once its batch syncs —
:meth:`unflushed_ack_ids` names the acks still inside the open window,
and a crash inside it simply re-runs those jobs: zero
*reported-durable* acks are ever lost and replays of unreported work
are absorbed by ack idempotency, so the exactly-once contract holds
while the fsync is amortised.  The two sync disciplines are two window
sizes:

- ``sync="eager"`` (default): a window of one disposition — every
  final disposition is durable before :meth:`ack`/:meth:`dead_letter`
  returns;
- ``sync="group"``: a window of ``group_max_batch`` dispositions.

Enqueues of an already-known job ID are no-ops and duplicate acks are
rejected and counted — both idempotency properties the at-least-once
delivery of lease/requeue needs to compose into exactly-once results.

The pending set is a deque of job IDs in ``(priority, enqueue
ordinal)`` order with a **tombstone set** shadowing it: a targeted
removal (:meth:`lease_job`, :meth:`lease_jobs`, an ack or dead-letter
of a pending job) just marks the ID dead in O(1) and the head pop
skips tombstones lazily, so the lease hot path never scans or shifts
the backlog.

:meth:`JobQueue.compact` bounds journal growth: it atomically rewrites
the file as header + one snapshot record (write-temp, fsync, rename),
preserving pending/leased/acked/dead-letter state exactly, so reopening
a long-lived queue scans O(live jobs) records instead of O(history).
Reopening auto-compacts past ``compact_threshold`` scanned records.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.clock import SYSTEM_CLOCK, Clock
from repro.core.journal import encode_record, scan_journal
from repro.core.store import Store
from repro.fleet.jobs import Job

_HEADER = {"format": "fleet-queue", "version": 2}

#: Reopens that scanned at least this many records compact themselves.
_AUTO_COMPACT_THRESHOLD = 4096

#: Legal values for ``JobQueue(sync=...)``.
SYNC_MODES = ("eager", "group")


class QueueFormatError(ValueError):
    """The file exists but is not a fleet queue journal."""


class QueueCorruptionError(QueueFormatError):
    """Mid-file corruption: the journal was quarantined, not loaded."""


def _dumps(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class JobQueue:
    """Persistent enqueue/lease/ack with requeue, DLQ, and compaction."""

    def __init__(
        self,
        path: str,
        *,
        sync_every: int = 8,
        sync: str = "eager",
        group_max_batch: int = 32,
        group_max_delay_ms: float = 50.0,
        clock: Optional[Clock] = None,
        store: Optional[Store] = None,
        compact_threshold: Optional[int] = _AUTO_COMPACT_THRESHOLD,
    ):
        if sync not in SYNC_MODES:
            raise ValueError(
                "sync must be one of {!r}, got {!r}".format(SYNC_MODES, sync)
            )
        self.path = path
        self.sync_every = max(1, sync_every)
        self.sync = sync
        self.group_max_batch = (
            1 if sync == "eager" else max(1, int(group_max_batch))
        )
        self.group_max_delay_ms = float(group_max_delay_ms)
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.store = store if store is not None else Store()
        self.compact_threshold = compact_threshold
        self._f = None  # set last, so a failed _load leaves no handle
        self._jobs: Dict[str, Job] = {}
        #: Enqueue ordinal per job ID — the priority tie-breaker.
        self._ordinal: Dict[str, int] = {}
        self._pending: Deque[str] = deque()
        self._pending_set: Set[str] = set()
        self._tombstones: Set[str] = set()
        self._leases: Dict[str, Tuple[str, float]] = {}
        self._acked: Dict[str, str] = {}
        self._dead: Dict[str, Tuple[str, str]] = {}
        self.duplicate_acks = 0
        self.requeues = 0
        self.torn_bytes = 0
        self.compactions = 0
        self.records_scanned = 0
        self.fsyncs = 0
        self.ack_records = 0
        self.ack_flushes = 0
        self._since_sync = 0
        self._unflushed_acks: List[str] = []
        self._oldest_unflushed: Optional[float] = None
        existing = self.store.exists(path) and self.store.size(path) > 0
        if existing:
            self._load()
            if self.torn_bytes:
                # Cut the torn tail off before appending: scan stops at
                # the first torn record, so anything written after a
                # surviving tail — including eagerly-fsynced acks —
                # would be invisible to the next open.
                valid = self.store.size(path) - self.torn_bytes
                self.store.truncate(path, valid)
                print(
                    "warning: queue {} lost {} torn trailing byte(s) to "
                    "a crash; truncated".format(path, self.torn_bytes),
                    file=sys.stderr,
                )
            self._f = self.store.open(path, "a")
            if (
                self.compact_threshold is not None
                and self.records_scanned >= self.compact_threshold
            ):
                self.compact()
        else:
            self._f = self.store.open(path, "w")
            self._write(_HEADER)
            self._sync()
            self.records_scanned = 0  # the header is not a record

    # -- journal I/O -----------------------------------------------------

    def _write(self, record) -> None:
        self._f.write(encode_record(_dumps(record)))
        self.records_scanned += 1
        self._since_sync += 1
        if self._since_sync >= self.sync_every:
            self._sync()

    def _sync(self) -> List[str]:
        """fsync the journal; returns acks that just became durable.

        Buffered group-commit acks are only cleared *after* the fsync
        succeeds — an injected fsync fault leaves them unreported, so a
        caller never learns of durability that did not happen.
        """
        self._f.fsync()
        self.fsyncs += 1
        self._since_sync = 0
        flushed = self._unflushed_acks
        if flushed:
            self._unflushed_acks = []
            self._oldest_unflushed = None
            self.ack_flushes += 1
        return flushed

    def _load(self) -> None:
        data = self.store.read(self.path)
        scan = scan_journal(data)
        if scan.corrupt:
            quarantine = self.path + ".corrupt"
            self.store.replace(self.path, quarantine)
            raise QueueCorruptionError(
                "mid-file corruption at byte {} of {} ({}); journal "
                "quarantined to {}".format(
                    scan.corrupt_offset, self.path, scan.corrupt_detail,
                    quarantine,
                )
            )
        lines, dropped = scan.lines, scan.dropped_bytes
        self.torn_bytes = dropped
        if not lines:
            raise QueueFormatError(
                "{} holds no complete record".format(self.path)
            )
        header = json.loads(lines[0])
        if (
            not isinstance(header, dict)
            or header.get("format") != _HEADER["format"]
        ):
            raise QueueFormatError(
                "{} is not a fleet queue journal".format(self.path)
            )
        if header.get("version", 1) > _HEADER["version"]:
            raise QueueFormatError(
                "{} is queue format version {}, newer than this "
                "reader".format(self.path, header.get("version"))
            )
        for line in lines[1:]:
            record = json.loads(line)
            tag = record[0]
            if tag == "q":
                self._apply_enqueue(Job.from_json(record[1]))
            elif tag == "l":
                job_id, worker, expiry = record[1], record[2], record[3]
                self._pending_remove(job_id)
                self._leases[job_id] = (worker, expiry)
            elif tag == "L":
                job_ids, worker, expiry = record[1], record[2], record[3]
                for job_id in job_ids:
                    self._pending_remove(job_id)
                    self._leases[job_id] = (worker, expiry)
            elif tag == "a":
                job_id, worker = record[1], record[2]
                self._leases.pop(job_id, None)
                self._dead.pop(job_id, None)
                self._pending_remove(job_id)
                self._acked[job_id] = worker
            elif tag == "r":
                job_id = record[1]
                self._leases.pop(job_id, None)
                self._dead.pop(job_id, None)
                if job_id not in self._acked:
                    self._pending_add(job_id)
            elif tag == "d":
                job_id, worker, reason = record[1], record[2], record[3]
                self._leases.pop(job_id, None)
                self._pending_remove(job_id)
                if job_id not in self._acked:
                    self._dead[job_id] = (worker, reason)
            elif tag == "s":
                self._apply_snapshot(record[1])
            else:
                raise QueueFormatError(
                    "unknown queue record tag {!r}".format(tag)
                )
        self.records_scanned = len(lines) - 1
        self._sort_pending()

    # -- pending-set bookkeeping -----------------------------------------
    #
    # The deque carries (priority, ordinal) order; the tombstone set
    # makes targeted removal O(1).  Invariant: an ID is in
    # ``_tombstones`` iff it sits in the deque but is not live, and
    # every live ID (``_pending_set``) appears in the deque exactly
    # once.

    def _pending_key(self, job_id: str) -> Tuple[int, int]:
        return (self._jobs[job_id].priority, self._ordinal[job_id])

    def _pending_add(self, job_id: str) -> None:
        if job_id in self._pending_set:
            return
        self._pending_set.add(job_id)
        if job_id in self._tombstones:
            # The deque entry from before the removal still sits at the
            # correct sorted slot — resurrect it in place.
            self._tombstones.discard(job_id)
            return
        # Trim the dead tail so the order check compares live entries.
        while self._pending and self._pending[-1] in self._tombstones:
            self._tombstones.discard(self._pending.pop())
        self._pending.append(job_id)
        if (
            len(self._pending_set) > 1
            and len(self._pending) >= 2
            and self._pending_key(self._pending[-2])
            > self._pending_key(job_id)
        ):
            # Out-of-order insert (priority job, or a requeue whose
            # tombstone was already reaped): rebuild sorted.
            self._sort_pending()

    def _pending_remove(self, job_id: str) -> bool:
        if job_id not in self._pending_set:
            return False
        self._pending_set.discard(job_id)
        self._tombstones.add(job_id)
        return True

    def _pending_pop_best(self) -> Optional[str]:
        while self._pending:
            job_id = self._pending.popleft()
            if job_id in self._tombstones:
                self._tombstones.discard(job_id)
                continue
            self._pending_set.discard(job_id)
            return job_id
        return None

    def _sort_pending(self) -> None:
        self._pending = deque(
            sorted(self._pending_set, key=self._pending_key)
        )
        self._tombstones = set()

    # -- state helpers ---------------------------------------------------

    def _apply_enqueue(self, job: Job) -> bool:
        job_id = job.job_id
        if job_id in self._jobs:
            return False
        self._jobs[job_id] = job
        self._ordinal[job_id] = len(self._ordinal)
        if job_id not in self._acked:
            self._pending_add(job_id)
        return True

    # -- compaction ------------------------------------------------------

    def _snapshot(self) -> dict:
        """Full queue state as one JSON record, in enqueue order."""
        jobs = []
        for job_id in sorted(self._jobs, key=self._ordinal.get):
            if job_id in self._acked:
                status = ["a", self._acked[job_id]]
            elif job_id in self._dead:
                worker, reason = self._dead[job_id]
                status = ["d", worker, reason]
            elif job_id in self._leases:
                worker, expiry = self._leases[job_id]
                status = ["l", worker, expiry]
            else:
                status = "p"
            jobs.append([self._jobs[job_id].to_json(), status])
        return {
            "jobs": jobs,
            "requeues": self.requeues,
            "duplicate_acks": self.duplicate_acks,
            "compactions": self.compactions,
        }

    def _apply_snapshot(self, snapshot: dict) -> None:
        self._jobs = {}
        self._ordinal = {}
        self._pending = deque()
        self._pending_set = set()
        self._tombstones = set()
        self._leases = {}
        self._acked = {}
        self._dead = {}
        for job_json, status in snapshot["jobs"]:
            job = Job.from_json(job_json)
            job_id = job.job_id
            self._jobs[job_id] = job
            self._ordinal[job_id] = len(self._ordinal)
            if status == "p":
                self._pending.append(job_id)
                self._pending_set.add(job_id)
            elif status[0] == "a":
                self._acked[job_id] = status[1]
            elif status[0] == "d":
                self._dead[job_id] = (status[1], status[2])
            elif status[0] == "l":
                self._leases[job_id] = (status[1], status[2])
            else:
                raise QueueFormatError(
                    "unknown snapshot status {!r}".format(status)
                )
        self.requeues = snapshot.get("requeues", 0)
        self.duplicate_acks = snapshot.get("duplicate_acks", 0)
        self.compactions = snapshot.get("compactions", 0)

    def compact(self) -> Dict[str, int]:
        """Atomically fold the journal into header + one snapshot.

        Write-temp, fsync, rename: a crash at any point leaves either
        the old journal or the complete new one, never a mix.  State —
        pending order, leases with expiries, acked workers, dead-letter
        reasons, counters — round-trips exactly.  Any open group-commit
        durability window is flushed first.
        """
        bytes_before = self.store.size(self.path)
        records_before = self.records_scanned
        if self._f is not None and not self._f.closed:
            self._sync()
            self._f.close()
        self.compactions += 1
        tmp = self.path + ".compact"
        handle = self.store.open(tmp, "w")
        try:
            handle.write(encode_record(_dumps(_HEADER)))
            handle.write(
                encode_record(_dumps(["s", self._snapshot()]))
            )
            handle.fsync()
        finally:
            handle.close()
        self.store.replace(tmp, self.path)
        self._f = self.store.open(self.path, "a")
        self._since_sync = 0
        self.records_scanned = 1
        self.torn_bytes = 0
        return {
            "bytes_before": bytes_before,
            "bytes_after": self.store.size(self.path),
            "records_before": records_before,
            "records_after": 1,
        }

    # -- the queue API ---------------------------------------------------

    def enqueue(self, job: Job) -> bool:
        """Add a job; returns False (and writes nothing) if already known."""
        if not self._apply_enqueue(job):
            return False
        self._write(["q", job.to_json()])
        return True

    def _lease(
        self,
        job_ids: List[str],
        worker: str,
        ttl: float,
        now: Optional[float],
    ) -> None:
        """The one lease writer: one ``"L"`` record per lease call."""
        if now is None:
            now = self.clock.monotonic()
        expiry = now + ttl
        for job_id in job_ids:
            self._leases[job_id] = (worker, expiry)
        self._write(["L", job_ids, worker, expiry])

    def lease(
        self,
        worker: str,
        *,
        ttl: float = 60.0,
        now: Optional[float] = None,
    ) -> Optional[Job]:
        """Hand the best pending job to ``worker`` until ``now + ttl``."""
        job_id = self._pending_pop_best()
        if job_id is None:
            return None
        self._lease([job_id], worker, ttl, now)
        return self._jobs[job_id]

    def lease_job(
        self,
        job_id: str,
        worker: str,
        *,
        ttl: float = 60.0,
        now: Optional[float] = None,
    ) -> bool:
        """Targeted lease: the scheduler picks, the journal records.

        The scheduler selects jobs from its own pending deque; this
        keeps the durable lease record in step with that choice instead
        of forcing queue-head order.
        """
        return bool(self.lease_jobs([job_id], worker, ttl=ttl, now=now))

    def lease_jobs(
        self,
        job_ids: Iterable[str],
        worker: str,
        *,
        ttl: float = 60.0,
        now: Optional[float] = None,
    ) -> List[str]:
        """Batched targeted lease: K leases, one journal append.

        Only IDs that are *still pending* are leased — an ID that an
        expiry sweep, a competing lease, an ack, or a dead-letter beat
        us to is silently skipped — and the leased subset is returned
        in the order given, so the caller knows exactly which jobs it
        owns.  Leasing nothing writes nothing.
        """
        leased = [job_id for job_id in job_ids if self._pending_remove(job_id)]
        if leased:
            self._lease(leased, worker, ttl, now)
        return leased

    def _record_disposition(self, record: List[object], job_id: str) -> None:
        """Append a final-disposition record inside the durability window."""
        self._write(record)
        self.ack_records += 1
        if self._since_sync != 0:
            # Not covered by a rolling sync_every fsync inside _write:
            # the record waits in the window until the batch/delay
            # threshold, an explicit barrier, or close.
            self._unflushed_acks.append(job_id)
            if self._oldest_unflushed is None:
                self._oldest_unflushed = self.clock.monotonic()
            self.maybe_flush_acks()

    def ack(self, job_id: str, worker: str) -> bool:
        """Mark a job done.  Duplicate acks are rejected.

        The ack is only *reported* durable once an fsync covers it: in
        eager mode before this returns, in group mode when its window
        flushes (:meth:`flush_acks`, or an automatic batch flush).
        """
        if job_id not in self._jobs:
            raise KeyError("unknown job {!r}".format(job_id))
        if job_id in self._acked:
            self.duplicate_acks += 1
            return False
        self._leases.pop(job_id, None)
        self._dead.pop(job_id, None)
        self._pending_remove(job_id)
        self._acked[job_id] = worker
        self._record_disposition(["a", job_id, worker], job_id)
        return True

    # -- the group-commit durability window ------------------------------

    def maybe_flush_acks(self, now: Optional[float] = None) -> List[str]:
        """Pump the durability window from a poll loop.

        Flushes once the window holds ``group_max_batch`` dispositions
        or its oldest has waited ``group_max_delay_ms``; returns the job
        IDs whose acks just became durable.  An eager window closes on
        the disposition that opened it, so there this finds nothing.
        """
        if not self._unflushed_acks:
            return []
        if len(self._unflushed_acks) >= self.group_max_batch:
            return self._sync()
        if now is None:
            now = self.clock.monotonic()
        if (now - self._oldest_unflushed) * 1000.0 >= self.group_max_delay_ms:
            return self._sync()
        return []

    def flush_acks(self) -> List[str]:
        """Explicit durability barrier: fsync any buffered dispositions.

        Returns the job IDs whose acks/dead-letters became durable with
        this flush.  Callers that report completion to the outside
        world (scheduler reports, drain summaries) call this first so
        they never claim durability ahead of the platter.
        """
        if not self._unflushed_acks:
            return []
        return self._sync()

    def unflushed_ack_ids(self) -> List[str]:
        """Acks written but not yet fsynced — the open durability window."""
        return list(self._unflushed_acks)

    def requeue(self, job_id: str) -> bool:
        """Return a leased (or lost) job to pending.

        Acked jobs never move; dead-lettered jobs only move through
        :meth:`requeue_dead` — an expiry sweep must not resurrect
        poison.
        """
        if (
            job_id in self._acked
            or job_id in self._dead
            or job_id not in self._jobs
        ):
            return False
        self._leases.pop(job_id, None)
        if job_id in self._pending_set:
            return False
        self._pending_add(job_id)
        self.requeues += 1
        self._write(["r", job_id])
        return True

    def requeue_expired(self, now: Optional[float] = None) -> List[str]:
        """Expire overdue leases back to pending; returns their job IDs."""
        if now is None:
            now = self.clock.monotonic()
        expired = [
            job_id
            for job_id, (_, expiry) in self._leases.items()
            if expiry <= now
        ]
        expired.sort(key=lambda job_id: self._ordinal[job_id])
        for job_id in expired:
            self.requeue(job_id)
        return expired

    def recover_leases(self) -> List[str]:
        """Crash reopen: every outstanding lease is an orphan; requeue all."""
        orphans = sorted(self._leases, key=lambda job_id: self._ordinal[job_id])
        for job_id in orphans:
            self.requeue(job_id)
        return orphans

    # -- the dead-letter section -----------------------------------------

    def dead_letter(self, job_id: str, worker: str, reason: str = "") -> bool:
        """Move a poison job out of circulation.

        Like an ack, a dead-letter record is a final disposition: it
        must survive a crash so the job is not silently retried forever
        on the next drain.  It shares the ack's durability window.
        """
        if job_id not in self._jobs:
            raise KeyError("unknown job {!r}".format(job_id))
        if job_id in self._acked or job_id in self._dead:
            return False
        self._leases.pop(job_id, None)
        self._pending_remove(job_id)
        self._dead[job_id] = (worker, reason)
        self._record_disposition(["d", job_id, worker, reason], job_id)
        return True

    def requeue_dead(self, job_id: str) -> bool:
        """Deliberately resurrect one dead-letter job back to pending."""
        if job_id not in self._dead:
            return False
        self._dead.pop(job_id)
        self._pending_add(job_id)
        self.requeues += 1
        self._write(["r", job_id])
        return True

    def dead_info(self, job_id: str) -> Dict[str, str]:
        worker, reason = self._dead[job_id]
        return {"worker": worker, "reason": reason}

    # -- introspection ---------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._pending_set)

    @property
    def leased(self) -> int:
        return len(self._leases)

    @property
    def acked(self) -> int:
        return len(self._acked)

    @property
    def dead(self) -> int:
        return len(self._dead)

    def acked_ids(self) -> List[str]:
        return sorted(self._acked, key=lambda job_id: self._ordinal[job_id])

    def pending_ids(self) -> List[str]:
        return [
            job_id
            for job_id in self._pending
            if job_id not in self._tombstones
        ]

    def leased_ids(self) -> List[str]:
        return sorted(self._leases, key=lambda job_id: self._ordinal[job_id])

    def dead_ids(self) -> List[str]:
        return sorted(self._dead, key=lambda job_id: self._ordinal[job_id])

    def job_ids(self) -> List[str]:
        return sorted(self._jobs, key=lambda job_id: self._ordinal[job_id])

    def job(self, job_id: str) -> Job:
        return self._jobs[job_id]

    def stats(self) -> Dict[str, object]:
        if self._f is not None and not self._f.closed:
            self._f.flush()
        return {
            "path": self.path,
            "sync": self.sync,
            "jobs": len(self._jobs),
            "depth": self.depth,
            "leased": self.leased,
            "acked": self.acked,
            "dead": self.dead,
            "requeues": self.requeues,
            "duplicate_acks": self.duplicate_acks,
            "torn_bytes": self.torn_bytes,
            "compactions": self.compactions,
            "records_scanned": self.records_scanned,
            "fsyncs": self.fsyncs,
            "ack_records": self.ack_records,
            "ack_flushes": self.ack_flushes,
            "unflushed_acks": len(self._unflushed_acks),
            "journal_bytes": (
                self.store.size(self.path)
                if self.store.exists(self.path)
                else 0
            ),
        }

    def close(self) -> None:
        """Flush, fsync, release the handle.  Safe to call twice.

        The final fsync closes any open durability window, so a cleanly
        closed group-mode queue has no unreported acks.
        """
        f = self._f
        if f is None or f.closed:
            return
        try:
            self._sync()
        finally:
            f.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
