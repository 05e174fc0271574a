"""Crash-safe trace journaling: flush hooks, recovery, torn tails.

The crash tests run real child processes (fork + signal) because the
property under test — what survives on disk when the interpreter dies —
cannot be faked in-process.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.core.journal import crc32_hex
from repro.resilience import Shard, Supervisor, recover_journal
from repro.resilience.recover import journaled_fuzz_record, parse_journal
from repro.trace import format as tfmt
from repro.trace.recorder import JournalWriter
from repro.trace.replay import replay_path

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
        supervisor = Supervisor(timeout=120.0, retries=0)
        result = supervisor.run_shard(Shard("rec", "record", {
            "seed": 7, "substrate": "pyc", "journal": journal,
            "sync_every": 8, "faults": ["over_decref"], "die": True,
        }))
        assert result.classification == "crash"
        assert "signal 9" in result.detail
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
