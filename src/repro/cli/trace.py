"""The ``trace`` command group: FFI event record/replay."""

from __future__ import annotations

import argparse
from typing import Callable, Optional


def positive(kind: type) -> Callable[[str], object]:
    """An argparse ``type=`` taking a ``kind`` number above zero.

    A timeout of 0 or less would race the scheduler's result poll, and
    a journal cannot fsync every 0 records: both are usage errors.
    """

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(
                "must be greater than 0, got {}".format(text)
            )
        return value

    # argparse names a value ``kind`` cannot parse by this name.
    parse.__name__ = kind.__name__
    return parse


def fleet_options(workers: int, timeout: Optional[float]) -> dict:
    """``fleet_*`` options for a command's ``--workers`` / ``--timeout``.

    A ``--timeout`` run is watched work: at least one worker process
    (only a process can be killed), each job killed after ``timeout``
    seconds and never retried.
    """
    if timeout is None:
        return {"workers": workers}
    return {"workers": max(workers, 1), "timeout": timeout, "retries": 0}


def _trace_record_one(target: str, observer):
    """Run one recordable target under its live checker.

    Targets: ``dacapo/<benchmark>``, ``pyc/<PyScenario>``, or a JNI
    microbenchmark name (optionally prefixed ``micro/``).  Returns the
    live checker's violation reports.
    """
    if target.startswith("dacapo/"):
        from repro.jinn.agent import JinnAgent
        from repro.workloads.dacapo import run_workload

        agent = JinnAgent(mode="generated", observer=observer)
        run_workload(target[len("dacapo/"):], config="jinn", agents=[agent])
        return [v.report() for v in agent.rt.violations]
    if target.startswith("pyc/"):
        from repro.workloads.pyc_micro import (
            PYC_MICROBENCHMARKS,
            run_pyc_scenario,
        )

        name = target[len("pyc/"):]
        scenario = next(s for s in PYC_MICROBENCHMARKS if s.name == name)
        return run_pyc_scenario(scenario, observer=observer)["violations"]
    from repro.workloads.microbench import scenario_by_name
    from repro.workloads.outcomes import run_scenario

    name = target[len("micro/"):] if target.startswith("micro/") else target
    result = run_scenario(
        scenario_by_name(name).run, checker="jinn", observer=observer
    )
    return result.violations


def _cmd_trace_record(args) -> int:
    from repro.trace import TraceRecorder

    recorder = TraceRecorder(
        args.output,
        workload=args.target,
        journal_path=args.journal,
        sync_every=args.sync_every,
    )
    live = _trace_record_one(args.target, recorder)
    events = recorder.close()
    print("recorded {} events to {}".format(events, args.output))
    if args.journal:
        print("journal: {} (synced every {} records)".format(
            args.journal, args.sync_every
        ))
    print("live violations: {}".format(len(live)))
    for report in live:
        print("  " + report)
    return 0


def _cmd_trace_replay(args) -> int:
    from repro.fleet import fleet_replay
    from repro.fleet.merge import MissingPayloadError
    from repro.fleet.scheduler import HANG

    # The fleet is the one runner: with no workers it runs the jobs in
    # this process; under --timeout each file is a watched job on a
    # worker process, since only a process can be killed.
    try:
        merged, _ = fleet_replay(
            args.paths, force=args.force,
            **fleet_options(args.workers, args.timeout),
        )
    except MissingPayloadError as exc:
        # The detail reads "<exception type>: <text>", or names the
        # watchdog kill.
        print("REPLAY FAIL: {}: {}".format(
            exc.outcome.job.params["path"], exc.outcome.detail
        ))
        return 124 if exc.outcome.classification == HANG else 1
    files = merged.files
    for _, result in files:
        for line in result.warnings:
            print(line)
    print("replayed {} events from {} trace(s)".format(
        merged.event_count, len(files)
    ))
    violations = merged.violations
    print("violations: {}".format(len(violations)))
    for report in violations:
        print("  " + report)
    recorded = sum(len(result.recorded_reports) for _, result in files)
    if not recorded:
        return 0
    drifted = [path for path, result in files if result.drift]
    print("recorded stream: {} ({} violations)".format(
        "DRIFT" if drifted else "match", recorded
    ))
    for path in drifted:
        print("  drift: " + path)
    # A replayed checker that disagrees with what the live checker
    # logged into the same trace is a checker bug, not a clean run.
    return 1 if drifted else 0


def _cmd_trace_diff(args) -> int:
    from repro.trace.diff import diff_reports, render_diff
    from repro.trace.replay import replay_path

    old = replay_path(args.old, force=args.force)
    new = replay_path(args.new, force=args.force)
    diff = diff_reports(old.violations, new.violations)
    print(render_diff(diff))
    return 1 if diff["drift"] else 0


def _cmd_trace_corpus(args) -> int:
    from repro.trace.corpus import build_corpus

    manifest = build_corpus(
        args.output,
        benchmarks=args.benchmarks or None,
        scale=args.scale,
    )
    print(
        "recorded {} traces, {} events -> {}/".format(
            len(manifest["traces"]), manifest["total_events"], args.output
        )
    )
    return 0


def _cmd_trace_recover(args) -> int:
    import json as _json

    from repro.resilience.recover import recover_journal
    from repro.trace.format import TraceFormatError

    try:
        report = recover_journal(args.journal, args.output)
    except TraceFormatError as exc:
        print("RECOVER FAIL: {}".format(exc))
        return 1
    print(_json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0


def _cmd_trace(args) -> int:
    return SUBCOMMANDS[args.trace_command](args)


def add_parsers(sub) -> None:
    trace = sub.add_parser("trace", help="FFI event record/replay")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser("record", help="record one workload")
    record.add_argument(
        "target", help="dacapo/<name>, pyc/<name>, or a JNI micro name"
    )
    record.add_argument("-o", "--output", required=True, help="trace file")
    record.add_argument(
        "--journal", help="also append to a crash-safe journal file"
    )
    record.add_argument(
        "--sync-every", type=positive(int), default=64,
        help="fsync the journal every N records (bounds crash loss)",
    )

    replay = trace_sub.add_parser("replay", help="re-check recorded traces")
    replay.add_argument("paths", nargs="+", help="trace files")
    replay.add_argument(
        "--workers", type=int, default=0,
        help="replay on N fleet worker processes (0: in this process)",
    )
    replay.add_argument(
        "--force",
        action="store_true",
        help="replay despite a registry fingerprint mismatch",
    )
    replay.add_argument(
        "--timeout", type=positive(float), default=None,
        help="watchdog seconds per file, on at least one fleet worker; "
        "a killed file prints REPLAY FAIL and exits 124",
    )

    recover = trace_sub.add_parser(
        "recover", help="rebuild a replayable trace from a crashed journal"
    )
    recover.add_argument("journal", help="journal file from --journal")
    recover.add_argument(
        "-o", "--output", default=None,
        help="recovered trace path (default: <journal>.trace)",
    )

    diff = trace_sub.add_parser("diff", help="compare two replays")
    diff.add_argument("old", help="baseline trace")
    diff.add_argument("new", help="candidate trace")
    diff.add_argument("--force", action="store_true")

    corpus = trace_sub.add_parser("corpus", help="record the benchmark corpus")
    corpus.add_argument("-o", "--output", default="traces")
    corpus.add_argument("--scale", type=int, default=1000)
    corpus.add_argument(
        "--benchmarks", nargs="*", help="subset of dacapo benchmark names"
    )


SUBCOMMANDS = {
    "record": _cmd_trace_record,
    "replay": _cmd_trace_replay,
    "diff": _cmd_trace_diff,
    "corpus": _cmd_trace_corpus,
    "recover": _cmd_trace_recover,
}

COMMANDS = {"trace": _cmd_trace}
