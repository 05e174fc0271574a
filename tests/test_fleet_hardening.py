"""Hardening under the journal and the fleet: the journal record
format, the fault-injected storage seam, and the scheduler's retry
budget.

The journal format and the fault-injected store are the layers the
trace journal stands on (its own storage-fault tests are
``tests/test_trace_journal.py::TestJournalStorageChaos``): a torn tail
is truncation, damage followed by a valid record is mid-file
corruption, and a flipped bit or a missing checksum fails the record.
On the fleet side, a job that raises ends ``crash`` on its first
attempt, whatever the retry budget, without holding up the jobs beside
it: retries are for dead workers and watchdog kills only.
"""

import os
import time

import pytest

from repro.cli import main
from repro.core.clock import SYSTEM_CLOCK, FakeClock
from repro.core.journal import crc32_hex, encode_record, scan_journal
from repro.core.store import (
    Fault,
    FaultyStore,
    InjectedFault,
    Store,
)
from repro.fleet import FleetScheduler, replay_jobs
from repro.fleet.scheduler import CLEAN, CRASH
from tests.test_fleet import placeholder_jobs

LEAK_MONITOR = os.path.join(
    os.path.dirname(__file__), "data", "fuzz_corpus", "leak_monitor.trace"
)


def checksum_less(json_line):
    """A record with no checksum token: ``"<byte_len> <json>\\n"``."""
    return "{} {}\n".format(len(json_line.encode("utf-8")), json_line)


# ----------------------------------------------------------------------
# The shared journal format (repro.core.journal)
# ----------------------------------------------------------------------


class TestJournalFormat:
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

    def test_checksum_less_record_is_damage(self):
        good = encode_record('{"a":1}')
        bare = checksum_less('{"b":2}')
        # At the tail, nothing valid follows it: torn, truncated away.
        scan = scan_journal((good + bare).encode("utf-8"))
        assert scan.lines == ['{"a":1}']
        assert scan.dropped_bytes == len(bare.encode("utf-8"))
        assert not scan.corrupt
        # Before a valid record: mid-file corruption.
        later = encode_record('{"c":3}')
        scan = scan_journal((good + bare + later).encode("utf-8"))
        assert scan.lines == ['{"a":1}']
        assert scan.corrupt
        assert scan.corrupt_offset == len(good.encode("utf-8"))
        assert scan.corrupt_detail == "missing checksum"


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
        healthy = placeholder_jobs(3)
        (poison,) = replay_jobs(["poison.trace"])
        jobs = healthy[:2] + [poison] + healthy[2:]
        calls = []

        def executor(job):
            calls.append(job.job_id)
            if job.job_id == poison.job_id:
                raise RuntimeError("poison payload")
            return {"violations": [], "events": 1}

        report = FleetScheduler(
            jobs, workers=2, seed=11, retries=2, clock=FakeClock(),
            inline=True, executor=executor,
        ).run()
        outcomes = {o.job.job_id: o for o in report.outcomes}
        outcome = outcomes[poison.job_id]
        assert outcome.classification == CRASH
        assert outcome.attempts == 1  # a raise is never retried
        assert outcome.backoffs == []
        assert calls.count(poison.job_id) == 1
        assert "RuntimeError: poison payload" in outcome.detail
        for job in healthy:
            assert outcomes[job.job_id].classification == CLEAN
            assert outcomes[job.job_id].attempts == 1
        assert report.counts[CLEAN] == 3
        assert report.counts[CRASH] == 1
        assert not report.ok

    @pytest.mark.parametrize("retries", [0, 1])
    def test_failing_jobs_wait_only_for_their_backoff(self, retries):
        # Eight always-raising jobs on one slot: each ends at its first
        # attempt, so the run has no backoff to wait for.
        jobs = placeholder_jobs(8)

        def always_fail(job):
            raise RuntimeError("corrupt input")

        clock = FakeClock()
        report = FleetScheduler(
            jobs, workers=1, seed=12, retries=retries, clock=clock,
            inline=True, executor=always_fail,
        ).run()
        assert [o.classification for o in report.outcomes] == [CRASH] * 8
        assert [o.attempts for o in report.outcomes] == [1] * 8
        assert [o.backoffs for o in report.outcomes] == [[]] * 8
        assert clock.slept == 0

    @pytest.mark.parametrize("workers", ["0", "1", "2"])
    def test_corrupt_copies_fail_as_fast_as_one(
        self, workers, tmp_path, monkeypatch, capsys
    ):
        # The case above through `trace replay`: 8 copies of one trace
        # with a corrupt record, each parsed once.
        with open(LEAK_MONITOR) as f:
            lines = f.read().splitlines(True)
        lines[3] = "garbage{{{\n"
        copies = []
        for n in range(8):
            path = tmp_path / "copy{}.trace".format(n)
            path.write_text("".join(lines))
            copies.append(str(path))
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            time.sleep(seconds)

        monkeypatch.setattr(SYSTEM_CLOCK, "sleep", sleep)
        argv = ["trace", "replay", "--workers", workers, *copies]
        assert main(argv) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            "REPLAY FAIL: {}: TraceFormatError: corrupt trace record at "
            "line 4".format(copies[0])
        )
        # A corrupt trace fails the same way every time: no retry, so
        # no backoff.
        assert slept == []
