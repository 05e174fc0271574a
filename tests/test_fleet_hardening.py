"""Fleet fabric hardening: the fault-injected storage seam, the
checksummed compacting journal, poison-job dead-lettering, and worker
circuit breakers.

The acceptance surface from the issue: the chaos driver replays
enqueue/lease/ack/crash schedules under injected faults and a reopened
queue is byte-exact or cleanly truncated — never silently wrong; zero
acked jobs lost, zero duplicate completions; mid-file corruption is
detected and quarantined, not skipped; compaction preserves
pending/leased/acked/dead-letter state exactly while shrinking the
journal; poison jobs land in the dead-letter section instead of
blocking the drain; and a worker slot that keeps killing jobs stops
being handed them.
"""

import json
import warnings

import pytest

from repro.core.clock import FakeClock
from repro.core.journal import crc32_hex, encode_record, scan_journal
from repro.core.store import (
    Fault,
    FaultyStore,
    InjectedFault,
    Store,
    flip_bit,
)
from repro.fleet import (
    FleetScheduler,
    Job,
    JobQueue,
    bench_trial_jobs,
    storage_chaos,
    storage_chaos_gate,
)
from repro.fleet.queue import QueueCorruptionError, QueueFormatError
from repro.fleet.scheduler import CLEAN, CRASH


def v1_record(json_line):
    """A v1 (checksum-less) record, as older releases wrote them."""
    return "{} {}\n".format(len(json_line.encode("utf-8")), json_line)


def _jobs(n, seed=11):
    return bench_trial_jobs(seed, n)


def _fresh_queue(tmp_path, name="q.fleetq", **kwargs):
    return JobQueue(str(tmp_path / name), **kwargs)


# ----------------------------------------------------------------------
# The shared journal format (repro.core.journal)
# ----------------------------------------------------------------------


class TestJournalFormat:
    def test_v1_and_v2_records_coexist_in_one_file(self):
        data = (
            v1_record('{"a":1}')
            + encode_record('{"b":2}')  # v2
            + v1_record('[1,2,3]')
        ).encode("utf-8")
        scan = scan_journal(data)
        assert scan.lines == ['{"a":1}', '{"b":2}', "[1,2,3]"]
        assert scan.dropped_bytes == 0
        assert not scan.corrupt

    def test_checksum_token_is_crc32_of_payload(self):
        record = encode_record('{"x":true}')
        length, crc, payload = record.rstrip("\n").split(" ", 2)
        assert int(length) == len(payload.encode("utf-8"))
        assert crc == crc32_hex(payload.encode("utf-8"))

    def test_torn_tail_is_truncation_not_corruption(self):
        good = encode_record('{"a":1}')
        torn = encode_record('{"b":2}')[:-5]
        scan = scan_journal((good + torn).encode("utf-8"))
        assert scan.lines == ['{"a":1}']
        assert scan.dropped_bytes == len(torn.encode("utf-8"))
        assert not scan.corrupt

    def test_valid_record_after_damage_means_mid_file_corruption(self):
        good = encode_record('{"a":1}')
        garbage = "###garbage###\n"
        later = encode_record('{"c":3}')
        scan = scan_journal((good + garbage + later).encode("utf-8"))
        assert scan.lines == ['{"a":1}']
        assert scan.corrupt
        assert scan.corrupt_offset == len(good.encode("utf-8"))
        assert scan.corrupt_detail

    def test_flipped_bit_fails_the_checksum(self):
        record = encode_record('{"a":1}')
        later = encode_record('{"b":2}')
        data = bytearray((record + later).encode("utf-8"))
        # Damage a payload byte of the first record, mid-file.
        data[len(record) - 4] ^= 0x01
        scan = scan_journal(bytes(data))
        assert scan.lines == []
        assert scan.corrupt
        assert scan.corrupt_detail == "checksum mismatch"

    def test_checksum_mismatch_on_final_record_is_torn(self):
        # Nothing valid after it: indistinguishable from a torn write.
        good = encode_record('{"a":1}')
        bad = bytearray(encode_record('{"b":2}').encode())
        bad[-4] ^= 0x01
        scan = scan_journal(good.encode("utf-8") + bytes(bad))
        assert scan.lines == ['{"a":1}']
        assert scan.dropped_bytes == len(bad)
        assert not scan.corrupt

    def test_v1_payload_never_misreads_as_checksum(self):
        # JSON payloads start with '[' or '{' — not hex — so eight
        # leading payload chars can never be taken for a CRC token.
        record = v1_record('["deadbeef", 1]')
        scan = scan_journal(record.encode("utf-8"))
        assert scan.lines == ['["deadbeef", 1]']

    def test_offsets_are_byte_exact(self):
        a = encode_record('{"a":1}')
        b = v1_record('{"b":2}')
        scan = scan_journal((a + b).encode("utf-8"))
        assert scan.offsets == [0, len(a.encode("utf-8"))]


# ----------------------------------------------------------------------
# The fault-injected store (repro.core.store)
# ----------------------------------------------------------------------


class TestFaultyStore:
    def test_unflushed_writes_are_lost_on_crash(self, tmp_path):
        path = str(tmp_path / "j")
        store = FaultyStore()
        handle = store.open(path, "w")
        handle.write("A" * 10)
        handle.fsync()
        handle.write("B" * 10)  # buffered, never flushed
        store.crash()
        assert Store().read(path) == b"A" * 10

    def test_enospc_buffers_nothing(self, tmp_path):
        path = str(tmp_path / "j")
        store = FaultyStore([Fault("write", 2, "enospc")])
        handle = store.open(path, "w")
        handle.write("first ")
        with pytest.raises(InjectedFault):
            handle.write("second")
        handle.flush()
        handle.close()
        assert Store().read(path) == b"first "

    def test_short_write_persists_a_prefix_then_dies(self, tmp_path):
        path = str(tmp_path / "j")
        store = FaultyStore([Fault("write", 1, "short", keep=0.5)])
        handle = store.open(path, "w")
        with pytest.raises(InjectedFault):
            handle.write("ABCDEFGH")
        assert store.dead
        store.crash()
        assert Store().read(path) == b"ABCD"

    def test_fsync_fault_flushes_but_refuses_durability(self, tmp_path):
        path = str(tmp_path / "j")
        store = FaultyStore([Fault("fsync", 1, "error")])
        handle = store.open(path, "w")
        handle.write("payload")
        with pytest.raises(InjectedFault):
            handle.fsync()
        # EIO on fsync: the data reached the file regardless.
        assert Store().read(path) == b"payload"

    def test_bitflip_succeeds_with_one_bit_changed(self, tmp_path):
        path = str(tmp_path / "j")
        store = FaultyStore([Fault("write", 1, "bitflip")])
        handle = store.open(path, "w")
        handle.write("AAAA")
        handle.fsync()
        data = Store().read(path)
        assert data != b"AAAA"
        assert sum(a != b for a, b in zip(data, b"AAAA")) == 1

    def test_ordinals_count_across_handles(self, tmp_path):
        store = FaultyStore([Fault("write", 3, "enospc")])
        h1 = store.open(str(tmp_path / "a"), "w")
        h2 = store.open(str(tmp_path / "b"), "w")
        h1.write("1")
        h2.write("2")
        with pytest.raises(InjectedFault):
            h1.write("3")
        assert store.fired == [("write", 3, "enospc")]

    def test_flip_bit_helper_is_exact(self, tmp_path):
        path = str(tmp_path / "j")
        with open(path, "wb") as f:
            f.write(b"\x00\x00\x00")
        flip_bit(path, 1, mask=0x80)
        assert Store().read(path) == b"\x00\x80\x00"


# ----------------------------------------------------------------------
# Queue integrity on reopen
# ----------------------------------------------------------------------


class TestQueueIntegrity:
    def test_bit_flip_quarantines_and_raises(self, tmp_path):
        path = str(tmp_path / "q.fleetq")
        queue = JobQueue(path)
        for job in _jobs(3):
            queue.enqueue(job)
        queue.close()
        # Flip a payload bit of a non-final record: mid-file damage.
        data = Store().read(path)
        scan = scan_journal(data)
        mid = scan.offsets[1] + 15
        flip_bit(path, mid)
        with pytest.raises(QueueCorruptionError):
            JobQueue(path)
        assert not Store().exists(path)
        assert Store().exists(path + ".corrupt")

    def test_torn_tail_truncates_and_reopens(self, tmp_path, capsys):
        path = str(tmp_path / "q.fleetq")
        queue = JobQueue(path)
        jobs = _jobs(3)
        for job in jobs:
            queue.enqueue(job)
        queue.close()
        size = Store().size(path)
        with open(path, "ab") as f:
            f.write(b"999 {torn")  # an append cut mid-record
        reopened = JobQueue(path)
        assert "torn" in capsys.readouterr().err
        assert reopened.depth == 3
        assert Store().size(path) == size
        reopened.close()

    def test_v1_checksumless_journal_still_loads(self, tmp_path):
        # A queue journal written before the checksummed format.
        path = str(tmp_path / "q.fleetq")
        jobs = _jobs(2)
        with open(path, "w") as f:
            for line in (
                json.dumps({"format": "fleet-queue", "version": 1}),
                json.dumps(["q", jobs[0].to_json()]),
                json.dumps(["q", jobs[1].to_json()]),
                json.dumps(["a", jobs[0].job_id, "w0"]),
            ):
                f.write(v1_record(line))
        queue = JobQueue(path)
        assert queue.depth == 1
        assert queue.acked_ids() == [jobs[0].job_id]
        # New appends are v2 and coexist with the v1 prefix.
        queue.ack(jobs[1].job_id, "w1")
        queue.close()
        reopened = JobQueue(path)
        assert reopened.acked == 2
        reopened.close()

    def test_future_version_refused(self, tmp_path):
        path = str(tmp_path / "q.fleetq")
        with open(path, "w") as f:
            f.write(
                encode_record(
                    json.dumps({"format": "fleet-queue", "version": 99})
                )
            )
        with pytest.raises(QueueFormatError):
            JobQueue(path)


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------


class TestCompaction:
    def _churn(self, tmp_path, n=6):
        clock = FakeClock()
        queue = _fresh_queue(tmp_path, clock=clock, compact_threshold=None)
        jobs = _jobs(n)
        for job in jobs:
            queue.enqueue(job)
        queue.ack(jobs[0].job_id, "w0")
        queue.lease_job(jobs[1].job_id, "w1", ttl=100.0)
        queue.dead_letter(jobs[2].job_id, "w0", "poison x3")
        queue.requeue(jobs[3].job_id)  # no-op (already pending)
        return queue, jobs

    def test_compact_preserves_all_state_exactly(self, tmp_path):
        queue, jobs = self._churn(tmp_path)
        before = {
            "pending": queue.pending_ids(),
            "leased": queue.leased_ids(),
            "lease": queue._leases[jobs[1].job_id],
            "acked": queue.acked_ids(),
            "dead": queue.dead_ids(),
            "dead_info": queue.dead_info(jobs[2].job_id),
            "requeues": queue.requeues,
            "duplicate_acks": queue.duplicate_acks,
        }
        result = queue.compact()
        assert result["bytes_after"] < result["bytes_before"]
        assert result["records_after"] == 1
        assert queue.records_scanned == 1
        assert queue.compactions == 1
        queue.close()

        reopened = JobQueue(queue.path, compact_threshold=None)
        assert reopened.pending_ids() == before["pending"]
        assert reopened.leased_ids() == before["leased"]
        assert reopened._leases[jobs[1].job_id] == before["lease"]
        assert reopened.acked_ids() == before["acked"]
        assert reopened.dead_ids() == before["dead"]
        assert reopened.dead_info(jobs[2].job_id) == before["dead_info"]
        assert reopened.requeues == before["requeues"]
        assert reopened.compactions == 1
        reopened.close()

    def test_reopen_after_compact_with_pending_lease(self, tmp_path):
        # A lease taken before compaction survives it; crash recovery
        # on the compacted file still finds and requeues the orphan.
        queue, jobs = self._churn(tmp_path)
        queue.compact()
        queue.close()
        reopened = JobQueue(queue.path, compact_threshold=None)
        orphans = reopened.recover_leases()
        assert orphans == [jobs[1].job_id]
        assert jobs[1].job_id in reopened.pending_ids()
        reopened.close()

    def test_duplicate_enqueue_across_compaction_boundary(self, tmp_path):
        queue, jobs = self._churn(tmp_path)
        queue.compact()
        # Re-enqueueing any pre-compaction job — pending, acked, or
        # dead — must stay a no-op: the snapshot preserved identity.
        for job in jobs:
            assert queue.enqueue(job) is False
        assert len(queue.job_ids()) == len(jobs)
        queue.close()
        reopened = JobQueue(queue.path, compact_threshold=None)
        for job in jobs:
            assert reopened.enqueue(job) is False
        reopened.close()

    def test_auto_compact_on_reopen_past_threshold(self, tmp_path):
        path = str(tmp_path / "q.fleetq")
        queue = JobQueue(path, compact_threshold=None)
        jobs = _jobs(8)
        for job in jobs:
            queue.enqueue(job)
        for job in jobs[:6]:
            queue.ack(job.job_id, "w0")
        queue.close()
        reopened = JobQueue(path, compact_threshold=10)
        assert reopened.compactions == 1
        assert reopened.records_scanned == 1
        assert reopened.acked == 6
        assert reopened.depth == 2
        reopened.close()
        # Below threshold: no compaction.
        again = JobQueue(path, compact_threshold=10)
        assert again.compactions == 1
        again.close()

    def test_compact_is_crash_atomic(self, tmp_path):
        # A crash between tmp-write and rename leaves the old journal.
        queue, jobs = self._churn(tmp_path)
        path = queue.path
        queue.close()
        store = Store()
        before = store.read(path)
        # Simulate the tmp file surviving a crash mid-compact.
        with open(path + ".compact", "wb") as f:
            f.write(b"partial snapshot that never got renamed")
        reopened = JobQueue(path, compact_threshold=None)
        assert store.read(path) == before
        assert reopened.depth == len(jobs) - 3
        reopened.close()


# ----------------------------------------------------------------------
# Dead-letter section
# ----------------------------------------------------------------------


class TestDeadLetter:
    def test_requeue_refuses_dead_jobs(self, tmp_path):
        queue = _fresh_queue(tmp_path)
        job = _jobs(1)[0]
        queue.enqueue(job)
        queue.dead_letter(job.job_id, "w0", "crash x3")
        assert queue.requeue(job.job_id) is False
        assert queue.requeue_expired(now=1e9) == []
        assert queue.dead_ids() == [job.job_id]
        queue.close()

    def test_requeue_dead_resurrects_exactly_once(self, tmp_path):
        queue = _fresh_queue(tmp_path)
        job = _jobs(1)[0]
        queue.enqueue(job)
        queue.dead_letter(job.job_id, "w0", "hang")
        assert queue.requeue_dead(job.job_id) is True
        assert queue.requeue_dead(job.job_id) is False
        assert queue.pending_ids() == [job.job_id]
        assert queue.dead == 0
        queue.close()

    def test_ack_clears_a_dead_job(self, tmp_path):
        # A resurrected-and-completed job counts as acked, not dead.
        queue = _fresh_queue(tmp_path)
        job = _jobs(1)[0]
        queue.enqueue(job)
        queue.dead_letter(job.job_id, "w0", "flaky")
        queue.ack(job.job_id, "w1")
        assert queue.dead == 0
        assert queue.acked_ids() == [job.job_id]
        queue.close()
        reopened = JobQueue(queue.path)
        assert reopened.dead == 0
        assert reopened.acked_ids() == [job.job_id]
        reopened.close()

    def test_dead_letters_survive_compact_and_reopen(self, tmp_path):
        queue = _fresh_queue(tmp_path, compact_threshold=None)
        jobs = _jobs(4)
        for job in jobs:
            queue.enqueue(job)
        queue.dead_letter(jobs[0].job_id, "w0", "segfault in trial")
        queue.dead_letter(jobs[1].job_id, "w1", "hang")
        queue.compact()
        queue.close()
        reopened = JobQueue(queue.path, compact_threshold=None)
        assert reopened.dead_ids() == [jobs[0].job_id, jobs[1].job_id]
        assert reopened.dead_info(jobs[0].job_id) == {
            "worker": "w0", "reason": "segfault in trial",
        }
        # Crash recovery must not resurrect them.
        assert reopened.recover_leases() == []
        assert reopened.dead == 2
        reopened.close()

    def test_scheduler_dead_letters_poison_and_drains_the_rest(
        self, tmp_path
    ):
        healthy = _jobs(3)
        poison = Job(
            kind="bench-trial",
            params={"substrate": "pyc", "trial": 999},
            seed=11,
            max_attempts=2,
        )
        jobs = healthy[:2] + [poison] + healthy[2:]

        def executor(job):
            if job.job_id == poison.job_id:
                raise RuntimeError("poison payload")
            return {"violations": [], "events": 1}

        queue = _fresh_queue(tmp_path)
        scheduler = FleetScheduler(
            jobs, workers=2, seed=11, retries=5, backoff_base=0.01,
            backoff_cap=0.05, clock=FakeClock(), inline=True,
            executor=executor, queue=queue,
        )
        report = scheduler.run()
        outcome = {o.job.job_id: o for o in report.outcomes}[poison.job_id]
        assert outcome.dead_lettered
        assert outcome.classification == CRASH
        # max_attempts=2 overrides the scheduler's retries=5 budget.
        assert outcome.attempts == 2
        assert report.counts["dead_letter"] == 1
        assert report.counts[CLEAN] == 3
        assert queue.dead_ids() == [poison.job_id]
        assert queue.depth == 0
        queue.close()

    def test_resume_skips_dead_jobs(self, tmp_path):
        healthy = _jobs(2)
        poison = Job(kind="bench-trial", params={"trial": 7}, max_attempts=1)
        queue = _fresh_queue(tmp_path)

        def fail_poison(job):
            if job.job_id == poison.job_id:
                raise RuntimeError("poison")
            return {"violations": [], "events": 1}

        first = FleetScheduler(
            healthy + [poison], workers=1, seed=1, retries=3,
            backoff_base=0.01, backoff_cap=0.05, clock=FakeClock(),
            inline=True, executor=fail_poison, queue=queue,
        )
        first.run()
        # Re-running the same job set against the same queue re-executes
        # nothing: acked and dead-lettered jobs are both skipped.
        calls = []

        def count_calls(job):
            calls.append(job.job_id)
            return {"violations": [], "events": 1}

        second = FleetScheduler(
            healthy + [poison], workers=1, seed=1, clock=FakeClock(),
            inline=True, executor=count_calls, queue=queue,
        )
        report = second.run()
        assert calls == []
        assert report.skipped_acked == 2
        assert report.skipped_dead == 1
        assert report.load_json()["skipped_dead"] == 1
        queue.close()


# ----------------------------------------------------------------------
# Worker circuit breakers
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_consecutive_failures_trip_the_breaker(self):
        jobs = _jobs(6, seed=13)

        def always_fail(job):
            raise RuntimeError("bad slot")

        scheduler = FleetScheduler(
            jobs, workers=1, seed=13, retries=0, backoff_base=0.01,
            backoff_cap=0.05, clock=FakeClock(), inline=True,
            executor=always_fail,
        )
        report = scheduler.run()
        assert sum(report.breaker_trips) >= 1
        assert report.load_json()["breaker_trips"] == report.breaker_trips
        # All jobs still reached a final disposition.
        assert len(report.outcomes) == len(jobs)

    def test_success_resets_the_blame_ladder(self):
        jobs = _jobs(6, seed=14)
        fail_ids = {jobs[0].job_id, jobs[1].job_id, jobs[3].job_id}

        def sometimes_fail(job):
            if job.job_id in fail_ids:
                raise RuntimeError("flaky")
            return {"violations": [], "events": 1}

        scheduler = FleetScheduler(
            jobs, workers=1, seed=14, retries=0, backoff_base=0.01,
            backoff_cap=0.05, clock=FakeClock(), inline=True,
            executor=sometimes_fail,
        )
        report = scheduler.run()
        # Two failures, a success, one failure: blame never reaches 3.
        assert sum(report.breaker_trips) == 0
        assert report.ok is False

    def test_half_open_breaker_retrips_on_one_strike(self):
        jobs = _jobs(8, seed=15)

        def always_fail(job):
            raise RuntimeError("still bad")

        clock = FakeClock()
        scheduler = FleetScheduler(
            jobs, workers=1, seed=15, retries=0, backoff_base=0.01,
            backoff_cap=0.05, clock=clock, inline=True,
            executor=always_fail,
        )
        report = scheduler.run()
        # 8 failures on one slot: trip at 3, then half-open re-trips on
        # every subsequent failure.
        assert report.breaker_trips[0] >= 3
        assert len(report.outcomes) == len(jobs)

    def test_breaker_backoff_is_deterministic(self):
        jobs = _jobs(6, seed=16)

        def always_fail(job):
            raise RuntimeError("bad")

        def run():
            scheduler = FleetScheduler(
                jobs, workers=1, seed=16, retries=0, backoff_base=0.01,
                backoff_cap=0.05, clock=FakeClock(), inline=True,
                executor=always_fail,
            )
            return scheduler.run()

        a, b = run(), run()
        assert a.breaker_trips == b.breaker_trips
        assert a.to_json() == b.to_json()


# ----------------------------------------------------------------------
# The storage chaos driver
# ----------------------------------------------------------------------


class TestStorageChaos:
    def test_gate_passes_and_report_is_deterministic(self):
        report = storage_chaos(7, rounds=1, jobs=4)
        gate = storage_chaos_gate(report)
        assert all(gate.values()), gate
        assert report["lost_acks"] == 0
        assert report["duplicate_completions"] == 0
        assert report["silently_wrong"] == 0
        assert report["corruptions_detected"] == report[
            "corruptions_injected"
        ]
        assert report["faults_fired"] > 0
        again = storage_chaos(7, rounds=1, jobs=4)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_different_seeds_differ(self):
        a = storage_chaos(7, rounds=1, jobs=4)
        b = storage_chaos(8, rounds=1, jobs=4)
        assert all(storage_chaos_gate(b).values())
        assert json.dumps(a) != json.dumps(b)

    def test_every_scenario_ran(self):
        from repro.fleet.chaos import SCENARIOS

        report = storage_chaos(3, rounds=1, jobs=4)
        ran = {entry["scenario"] for entry in report["entries"]}
        assert ran == set(SCENARIOS)


# ----------------------------------------------------------------------
# Close/exit idempotency and lease races
# ----------------------------------------------------------------------


class TestLifecycleEdges:
    def test_close_is_idempotent(self, tmp_path):
        queue = _fresh_queue(tmp_path)
        queue.enqueue(_jobs(1)[0])
        queue.close()
        queue.close()  # second close is a no-op, not an error
        with JobQueue(queue.path) as reopened:
            assert reopened.depth == 1
        reopened.close()  # close after __exit__ likewise

    def test_failed_load_leaves_no_open_handle(self, tmp_path):
        path = str(tmp_path / "bad.fleetq")
        with open(path, "w") as f:
            f.write(encode_record(json.dumps({"format": "nope"})))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(QueueFormatError):
                JobQueue(path)
            import gc

            gc.collect()

    def test_requeue_expired_racing_targeted_lease(self, tmp_path):
        # The expiry sweep and a scheduler's targeted lease chase the
        # same job: whoever journals first wins, and the loser's call
        # reports failure instead of double-leasing.
        clock = FakeClock()
        queue = _fresh_queue(tmp_path, clock=clock)
        job = _jobs(1)[0]
        queue.enqueue(job)
        queue.lease_job(job.job_id, "w0", ttl=5.0, now=0.0)
        # Lease expires; the sweep returns it to pending.
        assert queue.requeue_expired(now=10.0) == [job.job_id]
        # Targeted lease by another worker now succeeds exactly once.
        assert queue.lease_job(job.job_id, "w1", ttl=5.0, now=10.0) is True
        assert queue.lease_job(job.job_id, "w2", ttl=5.0, now=10.0) is False
        # And a sweep at the same instant cannot steal the fresh lease.
        assert queue.requeue_expired(now=10.0) == []
        assert queue._leases[job.job_id][0] == "w1"
        queue.ack(job.job_id, "w1")
        queue.close()
        reopened = JobQueue(queue.path)
        assert reopened.acked_ids() == [job.job_id]
        assert reopened.leased == 0
        reopened.close()

    def test_max_attempts_does_not_change_job_identity(self):
        # Jobs without max_attempts keep their pre-existing IDs, so
        # journals written before the field exist compose with new code.
        plain = Job(kind="bench-trial", params={"trial": 0}, seed=1)
        assert "max_attempts" not in plain.to_json()
        limited = Job(
            kind="bench-trial", params={"trial": 0}, seed=1, max_attempts=2
        )
        assert limited.to_json()["max_attempts"] == 2
        back = Job.from_json(limited.to_json())
        assert back.max_attempts == 2
        with pytest.raises(ValueError):
            Job(kind="bench-trial", params={}, max_attempts=0)


# ----------------------------------------------------------------------
# Group-commit ack durability
# ----------------------------------------------------------------------


class TestGroupCommit:
    def test_bad_sync_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _fresh_queue(tmp_path, sync="lazy")

    def test_eager_mode_fsyncs_every_disposition(self, tmp_path):
        queue = _fresh_queue(tmp_path, sync_every=1000)
        for job in _jobs(3):
            queue.enqueue(job)
        base = queue.fsyncs
        for job in _jobs(3):
            queue.lease_job(job.job_id, "w0", ttl=60.0, now=0.0)
            queue.ack(job.job_id, "w0")
            assert queue.unflushed_ack_ids() == []
        assert queue.fsyncs - base == 3
        assert queue.stats()["ack_records"] == 3
        queue.close()

    def test_group_mode_buffers_until_batch_threshold(self, tmp_path):
        queue = _fresh_queue(
            tmp_path, sync="group", sync_every=1000,
            group_max_batch=3, group_max_delay_ms=1e12,
        )
        jobs = _jobs(3)
        for job in jobs:
            queue.enqueue(job)
        base = queue.fsyncs
        for job in jobs[:2]:
            queue.lease_job(job.job_id, "w0", ttl=60.0, now=0.0)
            queue.ack(job.job_id, "w0")
        # Two acks sit in the open durability window, zero fsyncs paid.
        assert queue.unflushed_ack_ids() == [j.job_id for j in jobs[:2]]
        assert queue.fsyncs == base
        queue.lease_job(jobs[2].job_id, "w0", ttl=60.0, now=0.0)
        queue.ack(jobs[2].job_id, "w0")
        # The third disposition hits group_max_batch: one fsync for all.
        assert queue.unflushed_ack_ids() == []
        assert queue.fsyncs == base + 1
        assert queue.stats()["ack_flushes"] == 1
        queue.close()

    def test_group_mode_flushes_on_delay(self, tmp_path):
        clock = FakeClock()
        queue = _fresh_queue(
            tmp_path, sync="group", sync_every=1000, clock=clock,
            group_max_batch=1000, group_max_delay_ms=50.0,
        )
        job = _jobs(1)[0]
        queue.enqueue(job)
        queue.lease_job(job.job_id, "w0", ttl=60.0, now=0.0)
        queue.ack(job.job_id, "w0")
        assert queue.unflushed_ack_ids() == [job.job_id]
        # Below the window: the pump is a no-op.
        assert queue.maybe_flush_acks(now=clock.monotonic() + 0.04) == []
        # Past group_max_delay_ms: the pump flushes and reports the id.
        flushed = queue.maybe_flush_acks(now=clock.monotonic() + 0.06)
        assert flushed == [job.job_id]
        assert queue.unflushed_ack_ids() == []
        queue.close()

    def test_flush_acks_is_an_explicit_barrier(self, tmp_path):
        queue = _fresh_queue(
            tmp_path, sync="group", sync_every=1000,
            group_max_batch=1000, group_max_delay_ms=1e12,
        )
        job = _jobs(1)[0]
        queue.enqueue(job)
        queue.lease_job(job.job_id, "w0", ttl=60.0, now=0.0)
        queue.ack(job.job_id, "w0")
        assert queue.flush_acks() == [job.job_id]
        assert queue.flush_acks() == []  # nothing buffered: no-op
        queue.close()

    def test_close_flushes_the_open_window(self, tmp_path):
        queue = _fresh_queue(
            tmp_path, sync="group", sync_every=1000,
            group_max_batch=1000, group_max_delay_ms=1e12,
        )
        job = _jobs(1)[0]
        queue.enqueue(job)
        queue.lease_job(job.job_id, "w0", ttl=60.0, now=0.0)
        queue.ack(job.job_id, "w0")
        queue.close()
        with JobQueue(queue.path) as reopened:
            assert reopened.acked_ids() == [job.job_id]

    def test_rolling_sync_covers_in_window_acks(self, tmp_path):
        # When the rolling sync_every fsync fires on the ack record
        # itself, the ack is durable immediately and must not linger in
        # the window (where a later flush would re-report it).
        queue = _fresh_queue(
            tmp_path, sync="group", sync_every=1,
            group_max_batch=1000, group_max_delay_ms=1e12,
        )
        job = _jobs(1)[0]
        queue.enqueue(job)
        queue.lease_job(job.job_id, "w0", ttl=60.0, now=0.0)
        queue.ack(job.job_id, "w0")
        assert queue.unflushed_ack_ids() == []
        assert queue.flush_acks() == []
        queue.close()

    def test_fsync_fault_leaves_acks_unreported(self, tmp_path):
        # An injected fsync failure on the batch flush must NOT clear
        # the window: the caller never hears of durability that did not
        # happen (the conservative side of the group-commit contract).
        path = str(tmp_path / "q.fleetq")
        store = FaultyStore()
        queue = JobQueue(
            path, store=store, sync="group", sync_every=1000,
            group_max_batch=2, group_max_delay_ms=1e12,
        )
        jobs = _jobs(2)
        for job in jobs:
            queue.enqueue(job)
        queue.lease_job(jobs[0].job_id, "w0", ttl=60.0, now=0.0)
        queue.ack(jobs[0].job_id, "w0")
        store.faults.append(Fault("fsync", store.fsync_ops + 1, "error"))
        queue.lease_job(jobs[1].job_id, "w0", ttl=60.0, now=0.0)
        with pytest.raises(InjectedFault):
            queue.ack(jobs[1].job_id, "w0")  # batch flush hits the fault
        assert queue.unflushed_ack_ids() == [j.job_id for j in jobs]
        assert queue.stats()["ack_flushes"] == 0

    def test_crash_mid_batch_reruns_unreported_tail_exactly_once(
        self, tmp_path
    ):
        path = str(tmp_path / "q.fleetq")
        store = FaultyStore()
        queue = JobQueue(
            path, store=store, sync="group", sync_every=1000,
            group_max_batch=1000, group_max_delay_ms=1e12,
        )
        jobs = _jobs(4)
        for job in jobs:
            queue.enqueue(job)
        # First two acks reach the platter via the explicit barrier.
        queue.lease_jobs([j.job_id for j in jobs[:2]], "w0", ttl=60.0, now=0.0)
        for job in jobs[:2]:
            queue.ack(job.job_id, "w0")
        reported = set(queue.flush_acks())
        assert reported == {j.job_id for j in jobs[:2]}
        # The next two sit in the open window when the process dies.
        queue.lease_jobs([j.job_id for j in jobs[2:]], "w0", ttl=60.0, now=0.0)
        for job in jobs[2:]:
            queue.ack(job.job_id, "w0")
        in_window = set(queue.unflushed_ack_ids())
        assert in_window == {j.job_id for j in jobs[2:]}
        store.crash()
        # Reopen: every *reported* ack survived; the unreported tail is
        # simply work again, and re-acking it is not a duplicate.
        reopened = JobQueue(path)
        assert reported <= set(reopened.acked_ids())
        lost = sorted(in_window - set(reopened.acked_ids()))
        reopened.recover_leases()
        drained = []
        while True:
            job = reopened.lease("w1", ttl=60.0)
            if job is None:
                break
            assert reopened.ack(job.job_id, "w1") is True
            drained.append(job.job_id)
        assert sorted(drained) == lost
        assert set(reopened.acked_ids()) == {j.job_id for j in jobs}
        assert reopened.stats()["duplicate_acks"] == 0
        reopened.close()

    def test_eager_covered_disposition_pays_no_second_fsync(self, tmp_path):
        # Eager is a window of one disposition: when the rolling
        # sync_every fsync already covered the ack record, the ack is
        # durable and no second fsync follows.
        queue = _fresh_queue(tmp_path, sync_every=1)
        job = _jobs(1)[0]
        queue.enqueue(job)
        queue.lease_job(job.job_id, "w0", ttl=60.0, now=0.0)
        base = queue.fsyncs
        queue.ack(job.job_id, "w0")
        assert queue.fsyncs - base == 1
        assert queue.unflushed_ack_ids() == []
        assert queue.maybe_flush_acks() == []
        queue.close()

    def test_every_lease_call_writes_one_batched_record(self, tmp_path):
        queue = _fresh_queue(tmp_path, sync_every=1)
        jobs = _jobs(4)
        for job in jobs:
            queue.enqueue(job)
        queue.lease("w0", ttl=60.0, now=0.0)
        queue.lease_job(jobs[1].job_id, "w0", ttl=60.0, now=0.0)
        queue.lease_jobs(
            [j.job_id for j in jobs[2:]], "w1", ttl=60.0, now=0.0
        )
        queue.close()
        with open(queue.path, "rb") as f:
            lines = scan_journal(f.read()).lines
        records = [json.loads(line) for line in lines]
        assert [record[0] for record in records[1:]] == ["q"] * 4 + ["L"] * 3
        assert records[-3][1] == [jobs[0].job_id]
        assert records[-2][1] == [jobs[1].job_id]
        assert records[-1][1] == [j.job_id for j in jobs[2:]]

    def test_legacy_single_lease_record_reopens(self, tmp_path):
        # Queues written before the lease record had one form hold
        # single-job "l" records; the loader still reads them.
        path = str(tmp_path / "legacy.fleetq")
        leased, pending = _jobs(2)
        records = [
            {"format": "fleet-queue", "version": 2},
            ["q", leased.to_json()],
            ["q", pending.to_json()],
            ["l", leased.job_id, "w0", 60.0],
        ]
        with open(path, "w") as f:
            for record in records:
                f.write(encode_record(
                    json.dumps(record, sort_keys=True, separators=(",", ":"))
                ))
        with JobQueue(path) as queue:
            assert queue.leased_ids() == [leased.job_id]
            assert queue._leases[leased.job_id] == ("w0", 60.0)
            assert queue.pending_ids() == [pending.job_id]
            assert queue.recover_leases() == [leased.job_id]
            for job in (leased, pending):
                assert queue.lease("w1", ttl=60.0, now=0.0) == job
                assert queue.ack(job.job_id, "w1")
        with JobQueue(path) as reopened:
            assert reopened.acked_ids() == [leased.job_id, pending.job_id]
            assert reopened.depth == 0

    def test_batched_lease_record_survives_reopen(self, tmp_path):
        queue = _fresh_queue(tmp_path, sync_every=1)
        jobs = _jobs(3)
        for job in jobs:
            queue.enqueue(job)
        leased = queue.lease_jobs(
            [j.job_id for j in jobs], "w0", ttl=60.0, now=0.0
        )
        assert leased == [j.job_id for j in jobs]
        queue.close()
        with JobQueue(queue.path) as reopened:
            assert sorted(reopened.leased_ids()) == sorted(leased)
            assert reopened.depth == 0


# ----------------------------------------------------------------------
# Pending-order bookkeeping and batched-lease races
# ----------------------------------------------------------------------


class TestPendingOrder:
    def _job(self, trial, priority=0):
        return Job(
            kind="bench-trial",
            params={"substrate": "pyc", "trial": trial},
            seed=11,
            priority=priority,
        )

    def test_targeted_lease_and_requeue_preserve_order(self, tmp_path):
        # Leasing out of the middle tombstones the deque slot; a later
        # requeue resurrects the job at its original (priority, enqueue
        # ordinal) position, so drain order is unchanged.
        queue = _fresh_queue(tmp_path)
        a = self._job(0, priority=2)
        b = self._job(1, priority=0)
        c = self._job(2, priority=1)
        d = self._job(3, priority=0)
        e = self._job(4, priority=2)
        for job in (a, b, c, d, e):
            queue.enqueue(job)
        assert queue.lease_job(c.job_id, "w0", ttl=60.0, now=0.0) is True
        queue.requeue(c.job_id)
        order = []
        while True:
            job = queue.lease("w1", ttl=60.0, now=0.0)
            if job is None:
                break
            order.append(job.job_id)
        expected = [b.job_id, d.job_id, c.job_id, a.job_id, e.job_id]
        assert order == expected
        queue.close()

    def test_pending_ids_never_expose_tombstones(self, tmp_path):
        queue = _fresh_queue(tmp_path)
        jobs = _jobs(4)
        for job in jobs:
            queue.enqueue(job)
        queue.lease_job(jobs[1].job_id, "w0", ttl=60.0, now=0.0)
        queue.lease_job(jobs[2].job_id, "w0", ttl=60.0, now=0.0)
        remaining = [jobs[0].job_id, jobs[3].job_id]
        assert queue.pending_ids() == remaining
        assert queue.depth == 2
        queue.close()

    def test_batch_lease_skips_contested_ids(self, tmp_path):
        # The expiry sweep and a batched lease chase the same jobs: the
        # batch leases only what is still pending and reports exactly
        # which subset it owns.
        clock = FakeClock()
        queue = _fresh_queue(tmp_path, clock=clock)
        jobs = _jobs(3)
        for job in jobs:
            queue.enqueue(job)
        ids = [j.job_id for j in jobs]
        assert queue.lease_jobs(ids[:2], "w0", ttl=5.0, now=0.0) == ids[:2]
        # Both leases expire; the sweep wins them back.
        assert sorted(queue.requeue_expired(now=10.0)) == sorted(ids[:2])
        # A batch over all three now owns all three...
        assert queue.lease_jobs(ids, "w1", ttl=5.0, now=10.0) == ids
        # ...and a competing batch gets nothing, not a double lease.
        assert queue.lease_jobs(ids, "w2", ttl=5.0, now=10.0) == []
        assert queue.requeue_expired(now=10.0) == []
        for job_id in ids:
            assert queue._leases[job_id][0] == "w1"
        queue.close()

    def test_empty_batch_writes_no_record(self, tmp_path):
        queue = _fresh_queue(tmp_path)
        records = queue.records_scanned
        assert queue.lease_jobs(["nope"], "w0", ttl=5.0, now=0.0) == []
        assert queue.records_scanned == records
        queue.close()


# ----------------------------------------------------------------------
# Storage chaos in group-commit mode
# ----------------------------------------------------------------------


class TestStorageChaosGroupMode:
    def test_gate_passes_with_crash_points_inside_open_windows(self):
        report = storage_chaos(7, rounds=1, jobs=4, sync="group")
        gate = storage_chaos_gate(report)
        assert all(gate.values()), gate
        assert report["sync"] == "group"
        assert report["lost_acks"] == 0
        assert report["duplicate_completions"] == 0
        assert report["corruptions_detected"] == report[
            "corruptions_injected"
        ]
        # The schedules genuinely crash inside a half-written ack
        # batch: at least one run dies with unreported dispositions in
        # the durability window (re-run on drain, never lost or
        # double-counted).
        assert any(
            entry.get("unreported_acks_at_crash", 0) > 0
            for entry in report["entries"]
        )

    def test_group_report_is_deterministic(self):
        a = storage_chaos(7, rounds=1, jobs=4, sync="group")
        b = storage_chaos(7, rounds=1, jobs=4, sync="group")
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )

    def test_sync_modes_produce_distinct_schedule_outcomes(self):
        eager = storage_chaos(7, rounds=1, jobs=4, sync="eager")
        group = storage_chaos(7, rounds=1, jobs=4, sync="group")
        assert eager["sync"] == "eager"
        assert group["sync"] == "group"
        # Same seed, same fault plan — only the durability discipline
        # differs, and both uphold the exactly-once contract.
        assert all(storage_chaos_gate(eager).values())
        assert all(storage_chaos_gate(group).values())
