"""Hardening under the journal and the fleet: the journal record
format, the fault-injected storage seam, the scheduler's retry budget,
and worker circuit breakers.

The journal format and the fault-injected store are the layers the
trace journal stands on (its own storage-fault tests are
``tests/test_trace_journal.py::TestJournalStorageChaos``): a torn tail
is truncation, damage followed by a valid record is mid-file
corruption, and a flipped bit fails the checksum.  On the fleet side,
a job that fails every attempt ends ``crash`` after the scheduler's
``retries + 1`` attempts without holding up the jobs beside it, and a
worker slot that keeps killing jobs stops being handed them.
"""

import pytest

from repro.core.clock import FakeClock
from repro.core.journal import crc32_hex, encode_record, scan_journal
from repro.core.store import (
    Fault,
    FaultyStore,
    InjectedFault,
    Store,
)
from repro.fleet import FleetScheduler, Job, bench_trial_jobs
from repro.fleet.scheduler import CLEAN, CRASH


def v1_record(json_line):
    """A v1 (checksum-less) record, as older releases wrote them."""
    return "{} {}\n".format(len(json_line.encode("utf-8")), json_line)


def _jobs(n, seed=11):
    return bench_trial_jobs(seed, n)


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


# ----------------------------------------------------------------------
# The retry budget
# ----------------------------------------------------------------------


class TestRetryBudget:
    def test_poison_job_ends_crash_beside_clean_jobs(self):
        healthy = _jobs(3)
        poison = Job(
            kind="bench-trial",
            params={"substrate": "pyc", "trial": 999},
            seed=11,
        )
        jobs = healthy[:2] + [poison] + healthy[2:]
        calls = []

        def executor(job):
            calls.append(job.job_id)
            if job.job_id == poison.job_id:
                raise RuntimeError("poison payload")
            return {"violations": [], "events": 1}

        report = FleetScheduler(
            jobs, workers=2, seed=11, retries=2, backoff_base=0.01,
            backoff_cap=0.05, clock=FakeClock(), inline=True,
            executor=executor,
        ).run()
        outcomes = {o.job.job_id: o for o in report.outcomes}
        outcome = outcomes[poison.job_id]
        assert outcome.classification == CRASH
        assert outcome.attempts == 3  # retries + 1
        assert calls.count(poison.job_id) == 3
        assert "RuntimeError: poison payload" in outcome.detail
        for job in healthy:
            assert outcomes[job.job_id].classification == CLEAN
            assert outcomes[job.job_id].attempts == 1
        assert report.counts[CLEAN] == 3
        assert report.counts[CRASH] == 1
        assert not report.ok


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
