"""The ``trace`` command group: FFI event record/replay."""

from __future__ import annotations

from repro.cli.fleet import fleet_options, positive


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
    from repro.fleet.merge import MissingPayloadError
    from repro.trace.format import TraceFormatError
    from repro.trace.replay import replay_path

    path, failure, code = args.paths[0], None, 1
    options = fleet_options(args.workers, args.timeout)
    if len(args.paths) == 1 and options["workers"] <= 0:
        try:
            files = [(path, replay_path(path, force=args.force))]
        except (TraceFormatError, OSError) as exc:
            failure = "{}: {}".format(type(exc).__name__, exc)
    else:
        # The fleet is the one runner: with no workers it runs the same
        # jobs in this process; under --timeout each file is a watched
        # job on a worker process, since only a process can be killed.
        from repro.fleet import fleet_replay
        from repro.fleet.scheduler import HANG

        try:
            merged, _ = fleet_replay(args.paths, force=args.force, **options)
            files = merged.files
        except MissingPayloadError as exc:
            path = exc.outcome.job.params["path"]
            failure = exc.outcome.detail
            if exc.outcome.classification == HANG:
                code = 124
    if failure is not None:
        # A failed fleet job's detail reads "<exception type>: <text>",
        # so both paths print the same line for the same bad file.
        print("REPLAY FAIL: {}: {}".format(path, failure))
        return code
    for _, result in files:
        for line in result.warnings:
            print(line)
    print("replayed {} events from {} trace(s)".format(
        sum(result.event_count for _, result in files), len(files)
    ))
    violations = [v for _, result in files for v in result.violations]
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
