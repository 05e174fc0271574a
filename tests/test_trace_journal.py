"""Crash-safe trace journaling: flush hooks, recovery, torn tails.

The crash tests run real child processes (fork + signal) because the
property under test — what survives on disk when the interpreter dies —
cannot be faked in-process.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.core.journal import crc32_hex
from repro.core.store import Fault, FaultyStore, InjectedFault, Store, StoreHandle
from repro.resilience import recover_journal
from repro.resilience.recover import journaled_fuzz_record, parse_journal
from repro.trace import format as tfmt
from repro.trace.recorder import JournalWriter
from repro.trace.replay import replay_path
from tests.test_trace_bytes import record_kernel

DATA = os.path.join(os.path.dirname(__file__), "data", "resilience")


# ----------------------------------------------------------------------
# JournalWriter + parse_journal round trips
# ----------------------------------------------------------------------


class TestJournalFormat:
    def test_length_prefixed_lines(self, tmp_path):
        # Every record is v2: "<byte_len> <crc32> <json>".
        path = str(tmp_path / "j.journal")
        writer = JournalWriter(path, sync_every=2)
        header = tfmt.dump_record(
            tfmt.make_header(
                substrate="pyc", fingerprint="f", termination_site="T"
            )
        )
        writer.append(header)
        writer.append('["t",1,"main",0]')
        writer.close()
        raw = open(path, "rb").read()
        first = raw.split(b"\n", 1)[0]
        length, crc, payload = first.split(b" ", 2)
        assert int(length) == len(payload)
        assert crc.decode() == crc32_hex(payload)
        parsed_header, records, dropped = parse_journal(path)
        assert parsed_header["substrate"] == "pyc"
        assert records == ['["t",1,"main",0]']
        assert dropped == 0

    def test_torn_tail_bytes_dropped(self, tmp_path):
        path = str(tmp_path / "j.journal")
        writer = JournalWriter(path, sync_every=1)
        writer.append(tfmt.dump_record(tfmt.make_header(
            substrate="pyc", fingerprint="f", termination_site="T"
        )))
        writer.append('["t",1,"main",0]')
        writer.close()
        with open(path, "ab") as f:
            f.write(b'57 ["c",2,"PyList_GetIt')  # torn mid-record
        header, records, dropped = parse_journal(path)
        assert len(records) == 1
        assert dropped == len(b'57 ["c",2,"PyList_GetIt')

    def test_bad_length_prefix_stops_scan(self, tmp_path):
        path = str(tmp_path / "j.journal")
        writer = JournalWriter(path, sync_every=1)
        writer.append(tfmt.dump_record(tfmt.make_header(
            substrate="pyc", fingerprint="f", termination_site="T"
        )))
        writer.close()
        with open(path, "ab") as f:
            f.write(b"notanumber garbage\n")
        header, records, dropped = parse_journal(path)
        assert records == []
        assert dropped > 0

    def test_empty_journal_rejected(self, tmp_path):
        path = str(tmp_path / "j.journal")
        open(path, "w").close()
        with pytest.raises(tfmt.TraceFormatError):
            parse_journal(path)

    def test_sync_every_validation(self, tmp_path):
        with pytest.raises(ValueError):
            JournalWriter(str(tmp_path / "x"), sync_every=0)


class _CountingStore(Store):
    """The real filesystem, counting fsyncs."""

    def __init__(self):
        self.fsyncs = 0

    def open(self, path, mode="a"):
        handle = super().open(path, mode)
        fsync = handle.fsync

        def counted():
            self.fsyncs += 1
            fsync()

        handle.fsync = counted
        return handle


class TestFsyncCount:
    def test_sync_after_a_full_batch_is_free(self, tmp_path):
        store = _CountingStore()
        writer = JournalWriter(str(tmp_path / "j"), sync_every=64, store=store)
        for i in range(64):
            writer.append('["t",{},"main",0]'.format(i))
        assert store.fsyncs == 1  # the 64th append synced the batch
        writer.sync()
        writer.close()
        assert store.fsyncs == 1
        assert writer.records_written == 64

    def test_sync_makes_a_partial_batch_durable(self, tmp_path):
        store = _CountingStore()
        writer = JournalWriter(str(tmp_path / "j"), sync_every=64, store=store)
        writer.append('["t",1,"main",0]')
        writer.sync()
        writer.sync()
        assert store.fsyncs == 1
        writer.append('["t",2,"main",0]')
        writer.close()
        assert store.fsyncs == 2

    def test_failed_fsync_is_retried(self, tmp_path):
        store = FaultyStore([Fault("fsync", 1, "error")])
        writer = JournalWriter(str(tmp_path / "j"), sync_every=64, store=store)
        writer.append('["t",1,"main",0]')
        with pytest.raises(InjectedFault):
            writer.sync()
        writer.sync()  # the record is still owed its fsync
        assert store.fsync_ops == 2

    @pytest.mark.parametrize("kernel", ["compress", "hsqldb", "jython", "luindex"])
    def test_recorder_pays_one_fsync_per_batch(self, kernel, tmp_path, monkeypatch):
        fsyncs = []
        fsync = StoreHandle.fsync

        def counted(handle):
            fsyncs.append(1)
            fsync(handle)

        monkeypatch.setattr(StoreHandle, "fsync", counted)
        recorder = record_kernel(kernel, tmp_path, sync_every=64)
        appends = recorder._journal.records_written
        # One fsync per 64 appends, plus the batches cut short: the
        # header is synced alone at attach, and a flush that also
        # writes class records ends mid-batch.  A second fsync after
        # each full batch (~78 here) fails this.
        assert len(fsyncs) <= -(-appends // 64) + 2


# ----------------------------------------------------------------------
# Storage faults under a trace journal
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def luindex_lines(tmp_path_factory):
    """A recorded DaCapo trace's lines: header first, "e" last."""
    return record_kernel("luindex", tmp_path_factory.mktemp("luindex")).lines


def _write_through(lines, path, fault, sync_every=64):
    """Append ``lines`` to a journal on a store that fires ``fault``.

    Returns ``(store, raised)``: the fault surfaces to the caller as
    :class:`InjectedFault`, or the journal closes cleanly.
    """
    store = FaultyStore([fault])
    writer = JournalWriter(path, sync_every, store=store)
    try:
        for line in lines:
            writer.append(line)
        writer.close()
    except InjectedFault as exc:
        return store, exc
    return store, None


def _recovered_lines(report):
    with open(report.out_path) as f:
        return f.read().splitlines()


class TestJournalStorageChaos:
    """Every storage fault class, driven through ``JournalWriter``.

    Recovery keeps a byte-exact prefix of what was appended, or fails
    loudly; it never loads past damage.
    """

    def test_short_write_is_a_torn_tail(self, luindex_lines, tmp_path):
        at = len(luindex_lines) // 2
        journal = str(tmp_path / "j")
        store, raised = _write_through(
            luindex_lines, journal, Fault("write", at, "short")
        )
        assert isinstance(raised, InjectedFault)
        store.crash()
        report = recover_journal(journal, str(tmp_path / "rec.trace"))
        assert report.dropped_bytes > 0
        note = "dropped {} torn trailing byte(s)".format(report.dropped_bytes)
        assert note in report.notes
        assert not report.complete
        recovered = _recovered_lines(report)
        assert recovered == luindex_lines[: at - 1]
        full = replay_path(self._plain(luindex_lines, tmp_path))
        prefix = replay_path(report.out_path)
        assert prefix.violations == full.violations[: len(prefix.violations)]
        assert prefix.event_count == report.event_records > 0

    def test_crash_loses_at_most_one_batch(self, luindex_lines, tmp_path):
        sync_every = 64
        at = len(luindex_lines) // 2
        assert (at - 1) % sync_every  # the crash lands mid-batch
        journal = str(tmp_path / "j")
        store, raised = _write_through(
            luindex_lines, journal, Fault("write", at, "crash"), sync_every
        )
        assert isinstance(raised, InjectedFault)
        store.crash()
        report = recover_journal(journal, str(tmp_path / "rec.trace"))
        assert report.dropped_bytes == 0  # a clean prefix, no tear
        recovered = _recovered_lines(report)
        assert recovered == luindex_lines[: len(recovered)]
        lost = (at - 1) - len(recovered)
        assert 0 < lost <= sync_every

    def test_bitflip_mid_journal_is_fatal(self, luindex_lines, tmp_path):
        journal = str(tmp_path / "j")
        at = len(luindex_lines) // 2
        _, raised = _write_through(
            luindex_lines, journal, Fault("write", at, "bitflip")
        )
        assert raised is None  # the flipped write itself "succeeds"
        out = tmp_path / "rec.trace"
        with pytest.raises(tfmt.TraceFormatError, match="mid-file corruption"):
            recover_journal(journal, str(out))
        assert not out.exists()

    def test_bitflip_in_final_record_reads_as_torn(self, luindex_lines, tmp_path):
        journal = str(tmp_path / "j")
        at = len(luindex_lines)
        _, raised = _write_through(
            luindex_lines, journal, Fault("write", at, "bitflip")
        )
        assert raised is None
        report = recover_journal(journal, str(tmp_path / "rec.trace"))
        assert report.dropped_bytes > 0
        assert not report.complete  # the damaged record was the "e"
        assert _recovered_lines(report) == luindex_lines[:-1]

    @pytest.mark.parametrize(
        "fault", [Fault("write", 100, "enospc"), Fault("fsync", 1, "error")],
        ids=["enospc", "fsync-error"],
    )
    def test_refused_write_or_fsync_surfaces(self, luindex_lines, tmp_path, fault):
        store, raised = _write_through(luindex_lines, str(tmp_path / "j"), fault)
        assert isinstance(raised, InjectedFault)
        assert store.fired == [(fault.op, fault.at, fault.kind)]

    @staticmethod
    def _plain(lines, tmp_path):
        path = tmp_path / "full.trace"
        path.write_text("\n".join(lines) + "\n")
        return str(path)


# ----------------------------------------------------------------------
# Journal mode encodes exactly what the plain path encodes
# ----------------------------------------------------------------------


class TestJournalParity:
    def test_journal_matches_plain_trace(self, tmp_path):
        plain = str(tmp_path / "plain.trace")
        journal = str(tmp_path / "run.journal")
        journaled = str(tmp_path / "journaled.trace")
        journaled_fuzz_record({
            "seed": 11, "substrate": "pyc", "trace": plain,
            "faults": ["over_decref"],
        })
        journaled_fuzz_record({
            "seed": 11, "substrate": "pyc", "trace": journaled,
            "journal": journal, "sync_every": 4,
            "faults": ["over_decref"],
        })
        # The trace written at close is byte-identical either way:
        # incremental encoding must not change the output.
        assert open(plain).read() == open(journaled).read()
        # And a cleanly closed journal recovers to that same trace.
        report = recover_journal(journal, str(tmp_path / "rec.trace"))
        assert report.complete
        assert report.dropped_bytes == 0
        assert open(report.out_path).read() == open(plain).read()

    def test_jni_journal_parity(self, tmp_path):
        # JNI ctx tokens embed id(env), so traces from two runs are
        # never byte-comparable; the parity that matters is within one
        # run — the journal must recover to the same stream the close
        # path wrote.  Early-flushed class records may carry fewer
        # members than close-time ones, so compare record counts and
        # replayed violation streams, not bytes: the replay decoder
        # resolves late members on demand either way.
        journal = str(tmp_path / "run.journal")
        journaled = str(tmp_path / "journaled.trace")
        journaled_fuzz_record({
            "seed": 4, "substrate": "jni", "trace": journaled,
            "journal": journal, "sync_every": 4,
        })
        report = recover_journal(journal, str(tmp_path / "rec.trace"))
        assert report.complete
        assert report.dropped_bytes == 0
        close_lines = open(journaled).read().splitlines()
        assert report.recovered_records == len(close_lines) - 1
        full = replay_path(journaled)
        recovered = replay_path(report.out_path)
        assert recovered.violations == full.violations
        assert recovered.event_count == full.event_count

    def test_flipped_bit_in_recorded_journal_is_detected(self, tmp_path):
        # One bit flipped in a digit mid-journal (4 -> 5) still decodes
        # as valid JSON, so only the record checksum can catch it.
        journal = str(tmp_path / "run.journal")
        journaled_fuzz_record({
            "seed": 4, "substrate": "jni",
            "trace": str(tmp_path / "run.trace"),
            "journal": journal, "sync_every": 4,
        })
        with open(journal, "rb") as f:
            records = f.read().split(b"\n")
        # The first record from the middle on whose payload has a 4.
        target = next(
            i for i in range(len(records) // 2, len(records))
            if b"4" in records[i].partition(b"[")[2]
        )
        record = records[target]
        digit = record.index(b"4", record.index(b"["))
        records[target] = (
            record[:digit] + bytes([record[digit] ^ 0x01]) + record[digit + 1:]
        )
        with open(journal, "wb") as f:
            f.write(b"\n".join(records))
        with pytest.raises(tfmt.TraceFormatError, match="checksum mismatch"):
            parse_journal(journal)


# ----------------------------------------------------------------------
# Crash safety: the run dies, the journal survives
# ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_sigkilled_run_recovers_violation_prefix(self, tmp_path):
        journal = str(tmp_path / "crash.journal")
        full_trace = str(tmp_path / "full.trace")
        params = {
            "seed": 7, "substrate": "pyc", "journal": journal,
            "sync_every": 8, "faults": ["over_decref"], "die": True,
        }
        child = multiprocessing.Process(
            target=journaled_fuzz_record, args=(params,), daemon=True
        )
        child.start()
        child.join(120.0)
        assert child.exitcode == -signal.SIGKILL
        report = recover_journal(journal, str(tmp_path / "rec.trace"))
        assert not report.complete
        assert report.recovered_records > 0
        # Same seed, uninterrupted: the reference stream.
        journaled_fuzz_record({
            "seed": 7, "substrate": "pyc", "trace": full_trace,
            "sync_every": 8, "faults": ["over_decref"],
        })
        full = replay_path(full_trace)
        recovered = replay_path(report.out_path)
        assert recovered.violations
        assert (
            recovered.violations
            == full.violations[: len(recovered.violations)]
        )

    def test_sigterm_flushes_buffered_tail(self, tmp_path):
        # sync_every is huge, so nothing reaches the journal on record
        # count alone; the SIGTERM handler must flush the buffered
        # deferred-encode events before the process dies.
        journal = str(tmp_path / "term.journal")
        script = textwrap.dedent("""
            import os, signal, sys
            from repro.fuzz.engine import task_rng
            from repro.fuzz.faults import fault_by_name
            from repro.fuzz.gen import generate_sequence
            from repro.fuzz.ops import run_pyc_ops
            from repro.trace.recorder import TraceRecorder
            seq = generate_sequence(
                task_rng(7, "resilience-record", "pyc"), "pyc"
            )
            seq = fault_by_name("over_decref").inject(
                task_rng(7, "resilience-fault", "over_decref", 0), seq
            )
            rec = TraceRecorder(
                journal_path=sys.argv[1], sync_every=100000
            )
            run_pyc_ops([tuple(op) for op in seq.ops], observer=rec)
            os.kill(os.getpid(), signal.SIGTERM)  # no close()
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script, journal],
            env=dict(os.environ, PYTHONPATH=_src_path()),
            timeout=120,
        )
        assert proc.returncode == -signal.SIGTERM
        report = recover_journal(journal, str(tmp_path / "rec.trace"))
        # The flush wrote the whole buffered tail: the journal holds
        # events, not just the header synced at attach.
        assert report.event_records > 0
        assert replay_path(report.out_path).violations

    def test_atexit_flushes_on_plain_exit_without_close(self, tmp_path):
        journal = str(tmp_path / "exit.journal")
        script = textwrap.dedent("""
            import sys
            from repro.fuzz.engine import task_rng
            from repro.fuzz.gen import generate_sequence
            from repro.fuzz.ops import run_pyc_ops
            from repro.trace.recorder import TraceRecorder
            seq = generate_sequence(
                task_rng(5, "resilience-record", "pyc"), "pyc"
            )
            rec = TraceRecorder(
                journal_path=sys.argv[1], sync_every=100000
            )
            run_pyc_ops([tuple(op) for op in seq.ops], observer=rec)
            sys.exit(0)  # no close(): atexit must flush
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script, journal],
            env=dict(os.environ, PYTHONPATH=_src_path()),
            timeout=120,
        )
        assert proc.returncode == 0
        report = recover_journal(journal, str(tmp_path / "rec.trace"))
        assert report.event_records > 0


def _src_path() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


# ----------------------------------------------------------------------
# Torn tails and mid-file corruption (static fixtures)
# ----------------------------------------------------------------------


class TestTornAndCorrupt:
    def test_torn_tail_fixture_replays_with_warning(self):
        path = os.path.join(DATA, "torn_tail.trace")
        result = replay_path(path, force=True)
        assert result.event_count > 0
        assert any(
            line.startswith("warning: torn final record")
            for line in result.log_lines
        )

    def test_midfile_corruption_fixture_is_fatal(self):
        path = os.path.join(DATA, "midfile_corrupt.trace")
        with pytest.raises(tfmt.TraceFormatError):
            replay_path(path, force=True)

    def test_cli_exit_codes_for_fixtures(self, capsys):
        from repro.cli import main

        torn = os.path.join(DATA, "torn_tail.trace")
        corrupt = os.path.join(DATA, "midfile_corrupt.trace")
        assert main(["trace", "replay", torn, "--force"]) == 0
        assert "warning: torn final record" in capsys.readouterr().out
        assert main(["trace", "replay", corrupt, "--force"]) == 1
        assert "REPLAY FAIL" in capsys.readouterr().out

    def test_read_trace_tolerates_torn_tail(self, tmp_path):
        lines = [
            tfmt.dump_record(tfmt.make_header(
                substrate="pyc", fingerprint="f", termination_site="T"
            )),
            '["t",1,"main",0]',
            '["c",1,"Py_IncRef",false,[1,1,nu',  # torn
        ]
        path = tmp_path / "torn.trace"
        path.write_text("\n".join(lines))
        torn_seen = []
        header, records = tfmt.read_trace(
            str(path), on_torn=lambda no, line: torn_seen.append(no)
        )
        assert len(records) == 1
        assert torn_seen == [3]

    def test_read_trace_midfile_corruption_raises(self, tmp_path):
        lines = [
            tfmt.dump_record(tfmt.make_header(
                substrate="pyc", fingerprint="f", termination_site="T"
            )),
            '["c",1,"Py_IncRef",false,[1,1,nu',  # corrupt, but not last
            '["t",1,"main",0]',
        ]
        path = tmp_path / "bad.trace"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(tfmt.TraceFormatError):
            tfmt.read_trace(str(path))

    def test_iter_batches_lookahead_only_forgives_final_line(self, tmp_path):
        header = tfmt.dump_record(tfmt.make_header(
            substrate="pyc", fingerprint="f", termination_site="T"
        ))
        good = '["t",1,"main",0]'
        torn = '["c",1,"Py_IncRef",false,[1,'
        path = tmp_path / "torn.trace"
        # Small batch size forces the torn line into its own batch.
        path.write_text("\n".join([header] + [good] * 5 + [torn]))
        batches = list(tfmt.iter_batches(str(path), batch_size=2))
        assert sum(len(b) for b in batches) == 5
        bad = tmp_path / "bad.trace"
        bad.write_text("\n".join([header, good, torn, good]) + "\n")
        with pytest.raises(tfmt.TraceFormatError):
            list(tfmt.iter_batches(str(bad), batch_size=2))
