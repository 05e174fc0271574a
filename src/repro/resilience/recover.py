"""Journal recovery: turn a crashed run's journal back into a trace.

A journal (:class:`repro.trace.recorder.JournalWriter`) is an
append-only file of checksummed, length-prefixed records —
``"<byte_len> <crc32:08x> <json>\\n"``, the one framing of
:mod:`repro.core.journal` — fsynced every ``sync_every`` appends.  A
run killed mid-flight leaves a journal whose tail may be torn at any
byte; recovery scans forward, keeps every record whose length prefix,
checksum, payload, and terminator all check out, and stops at the
first damage (a record with no checksum is damage too).  Damage with
nothing valid after it is a torn tail: everything before it is the
exact line sequence a clean close would have produced, so the
recovered trace replays with full parity up to the crash point.
Damage *followed* by a valid record is mid-file corruption, and
:func:`parse_journal` raises instead of recovering.

The recovered trace has no end-of-trace ("e") record — the run never
terminated — so replay runs no leak sweep: its violation stream is a
*prefix* of the uninterrupted run's stream, which is the property the
recovery gate in ``benchmarks/bench_resilience.py`` checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.journal import scan_journal
from repro.trace import format as tfmt


@dataclass
class RecoveryReport:
    """What a journal scan salvaged."""

    journal_path: str
    out_path: Optional[str]
    recovered_records: int = 0
    event_records: int = 0
    violation_records: int = 0
    dropped_bytes: int = 0
    #: True when the journal ends with an end-of-trace record — the run
    #: closed cleanly and nothing was lost.
    complete: bool = False
    notes: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "journal": self.journal_path,
            "out": self.out_path,
            "recovered_records": self.recovered_records,
            "event_records": self.event_records,
            "violation_records": self.violation_records,
            "dropped_bytes": self.dropped_bytes,
            "complete": self.complete,
            "notes": self.notes,
        }


def parse_journal(path: str) -> Tuple[Dict[str, object], List[str], int]:
    """Scan a journal; returns (header, record lines, dropped bytes).

    The first record must be a valid trace header (the writer syncs it
    at attach, so a journal missing one was never a journal).  A torn
    tail is tolerated (truncation is what journals exist to survive);
    *mid-file* corruption — damaged bytes with valid records beyond
    them — raises :class:`repro.trace.format.TraceFormatError`, the
    same loud failure a corrupt plain trace gets: recovering records
    past in-place damage would replay a stream the original run never
    produced.
    """
    with open(path, "rb") as f:
        data = f.read()
    scan = scan_journal(data)
    if scan.corrupt:
        raise tfmt.TraceFormatError(
            "mid-file corruption at byte {} of journal {} ({}); "
            "refusing to recover past in-place damage".format(
                scan.corrupt_offset, path, scan.corrupt_detail
            )
        )
    lines, dropped = scan.lines, scan.dropped_bytes
    if not lines:
        raise tfmt.TraceFormatError(
            "journal {} holds no complete record".format(path)
        )
    header = tfmt.parse_header(lines[0])
    return header, lines[1:], dropped


def recover_journal(
    path: str, out_path: Optional[str] = None
) -> RecoveryReport:
    """Recover a journal into a plain replayable trace file.

    ``out_path`` defaults to the journal path with a ``.trace``
    suffix.  The output is ordinary JSONL — ``repro trace replay`` and
    every other trace consumer read it with no special casing.
    """
    header, records, dropped = parse_journal(path)
    if out_path is None:
        out_path = path + ".trace"
    report = RecoveryReport(journal_path=path, out_path=out_path)
    report.recovered_records = len(records)
    report.dropped_bytes = dropped
    for line in records:
        kind = line[2:3]
        if kind in ("c", "r"):
            report.event_records += 1
        elif kind == "v":
            report.violation_records += 1
        elif kind == "e":
            report.complete = True
    if dropped:
        report.notes.append(
            "dropped {} torn trailing byte(s)".format(dropped)
        )
    if not report.complete:
        report.notes.append(
            "no end-of-trace record: host termination was not captured; "
            "replay runs no termination sweep"
        )
    with open(out_path, "w") as f:
        f.write(tfmt.dump_record(header))
        f.write("\n")
        for line in records:
            f.write(line)
            f.write("\n")
    return report


# ----------------------------------------------------------------------
# Journaled recording (run in a child process or in-process)
# ----------------------------------------------------------------------


def journaled_fuzz_record(params: dict) -> None:
    """Record a deterministic fuzz workload through a journal.

    Driven by ``params`` so it can run as a child process's target:

    - ``seed``, ``substrate``: pick the generated workload;
    - ``faults``: fault-class names to inject (so the recorded run has
      violations for the recovery gate to compare);
    - ``journal``, ``sync_every``: journal destination and sync bound;
    - ``trace``: optional plain trace output on clean close;
    - ``die``: when true, SIGKILL *this process* after the workload ran
      but before the recorder closes — the crash the journal exists to
      survive.  The fsynced prefix is a deterministic function of the
      workload and ``sync_every``, so the recovery gate is stable.
    """
    import signal

    from repro.fuzz.engine import task_rng
    from repro.fuzz.faults import fault_by_name
    from repro.fuzz.gen import generate_sequence
    from repro.fuzz.ops import run_jni_ops, run_pyc_ops
    from repro.trace.recorder import TraceRecorder

    seed = params.get("seed", 0)
    substrate = params.get("substrate", "pyc")
    sequence = generate_sequence(
        task_rng(seed, "resilience-record", substrate), substrate
    )
    for index, name in enumerate(params.get("faults", ())):
        fault = fault_by_name(name)
        if fault.substrate != substrate:
            raise ValueError(
                "fault {!r} targets substrate {!r}, not {!r}".format(
                    name, fault.substrate, substrate
                )
            )
        sequence = fault.inject(
            task_rng(seed, "resilience-fault", name, index), sequence
        )
    recorder = TraceRecorder(
        params.get("trace"),
        workload="resilience/record",
        journal_path=params.get("journal"),
        sync_every=params.get("sync_every", 64),
    )
    runner = run_pyc_ops if substrate == "pyc" else run_jni_ops
    runner([tuple(op) for op in sequence.ops], observer=recorder)
    if params.get("die"):
        os.kill(os.getpid(), signal.SIGKILL)
    recorder.close()
