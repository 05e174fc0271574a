"""The ``fuzz`` command group: spec-driven FFI fuzzing."""

from __future__ import annotations

from repro.cli.fleet import fleet_options, positive


def _cmd_fuzz_run(args) -> int:
    import json as _json

    from repro.fleet import fleet_fuzz
    from repro.fleet.merge import MissingPayloadError
    from repro.fleet.scheduler import HANG
    from repro.fuzz import fuzz_gate

    rounds = 1 if args.smoke else args.rounds
    # Campaign slices on the fleet (in this process at --workers 0),
    # merged to the canonical report.
    try:
        report, _ = fleet_fuzz(
            args.seed, rounds=rounds, substrate=args.substrate,
            **fleet_options(args.workers, args.timeout),
        )
    except MissingPayloadError as exc:
        print("FUZZ FAIL: {}: {}".format(
            exc.outcome.job.describe(), exc.outcome.detail
        ))
        return 124 if exc.outcome.classification == HANG else 1
    failures = fuzz_gate(report)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        valid = report["valid"]
        print(
            "seed {} / {} round(s): {} valid sequences ({} ops), "
            "{} violations, {} divergences".format(
                report["seed"], report["rounds"], valid["sequences"],
                valid["ops"], valid["violations"], valid["divergences"],
            )
        )
        print("{:<22} {:<18} {:>9} {:>11}".format(
            "fault", "machine", "detected", "divergences"
        ))
        for name in sorted(report["faults"]):
            stats = report["faults"][name]
            print("{:<22} {:<18} {:>5}/{:<3} {:>11}".format(
                name, stats["machine"], stats["detected"], stats["runs"],
                stats["divergences"],
            ))
        print("total: {} runs, {} replayed events".format(
            report["totals"]["runs"], report["totals"]["events"]
        ))
    if failures:
        for failure in failures:
            print("GATE FAIL: " + failure)
        return 1
    print("gate: PASS")
    return 0


def _cmd_fuzz_shrink(args) -> int:
    from repro.fuzz import fault_by_name, shrink_fault

    try:
        fault = fault_by_name(args.fault)
    except KeyError:
        print("unknown fault class: {}".format(args.fault))
        return 2
    result = shrink_fault(fault, args.seed)
    print("fault: {} [{}] -> machine {}".format(
        fault.name, fault.substrate, fault.machine
    ))
    print("fingerprint: machine={}, state={}".format(*result.fingerprint))
    print("shrunk {} -> {} ops in {} runs".format(
        result.original_ops, result.shrunk_ops, result.runs
    ))
    for op in result.sequence.ops:
        print("  " + " ".join(str(part) for part in op))
    return 0


def _cmd_fuzz_corpus(args) -> int:
    from repro.fuzz.corpus import build_corpus, check_corpus

    if args.check:
        failures = check_corpus(args.output)
        if failures:
            for failure in failures:
                print("CORPUS FAIL: " + failure)
            return 1
        print("corpus at {} replays clean".format(args.output))
        return 0
    manifest = build_corpus(args.output, args.seed, substrate=args.substrate)
    for entry in manifest["entries"]:
        print("{:<22} {:>3} -> {:>2} ops  [machine={}, state={}]".format(
            entry["name"], entry["original_ops"], entry["shrunk_ops"],
            *entry["fingerprint"]
        ))
    print("wrote {} minimized traces -> {}/".format(
        len(manifest["entries"]), args.output
    ))
    return 0


def _cmd_fuzz_faults(args) -> int:
    from repro.fuzz import FAULTS

    print("{:<22} {:<4} {:<18} {}".format(
        "fault", "sub", "machine", "description"
    ))
    for fault in FAULTS:
        print("{:<22} {:<4} {:<18} {}".format(
            fault.name, fault.substrate, fault.machine, fault.description
        ))
    return 0


def _cmd_fuzz_graph(args) -> int:
    from repro.fuzz.gen import _specs

    specs = _specs(args.substrate)
    names = [args.machine] if args.machine else sorted(specs)
    for name in names:
        if name not in specs:
            print("unknown machine: {}".format(name))
            return 2
        graph = specs[name].transition_graph()
        print(graph.describe())
        print()
    return 0


def _cmd_fuzz(args) -> int:
    return SUBCOMMANDS[args.fuzz_command](args)


def add_parsers(sub) -> None:
    fuzz = sub.add_parser("fuzz", help="spec-driven FFI fuzzing")
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_sub.add_parser(
        "run", help="seeded fuzz loop: valid + fault-injected sequences"
    )
    fuzz_run.add_argument("--seed", type=int, default=2026)
    fuzz_run.add_argument("--rounds", type=int, default=3)
    fuzz_run.add_argument(
        "--substrate", choices=("both", "jni", "pyc"), default="both"
    )
    fuzz_run.add_argument(
        "--smoke", action="store_true", help="one fixed round (CI gate)"
    )
    fuzz_run.add_argument(
        "--workers", type=int, default=0,
        help="run campaign slices on N fleet worker processes "
        "(0: in this process)",
    )
    fuzz_run.add_argument(
        "--json", action="store_true", help="print the canonical report"
    )
    fuzz_run.add_argument(
        "--timeout", type=positive(float), default=None,
        help="watchdog seconds per campaign job (not the whole run), on "
        "at least one fleet worker; a killed job exits 124",
    )

    fuzz_shrink = fuzz_sub.add_parser(
        "shrink", help="minimize one fault class to its failure slice"
    )
    fuzz_shrink.add_argument("fault", help="fault class name (see 'faults')")
    fuzz_shrink.add_argument("--seed", type=int, default=2026)

    fuzz_corpus = fuzz_sub.add_parser(
        "corpus", help="build or check the minimized regression corpus"
    )
    fuzz_corpus.add_argument("-o", "--output", default="fuzz_corpus")
    fuzz_corpus.add_argument("--seed", type=int, default=2026)
    fuzz_corpus.add_argument(
        "--substrate", choices=("both", "jni", "pyc"), default="both"
    )
    fuzz_corpus.add_argument(
        "--check",
        action="store_true",
        help="replay an existing corpus instead of building one",
    )

    fuzz_sub.add_parser("faults", help="list fault classes")

    fuzz_graph = fuzz_sub.add_parser(
        "graph", help="print a machine's transition graph"
    )
    fuzz_graph.add_argument(
        "machine", nargs="?", help="machine name (all if omitted)"
    )
    fuzz_graph.add_argument(
        "--substrate", choices=("jni", "pyc"), default="jni"
    )


SUBCOMMANDS = {
    "run": _cmd_fuzz_run,
    "shrink": _cmd_fuzz_shrink,
    "corpus": _cmd_fuzz_corpus,
    "faults": _cmd_fuzz_faults,
    "graph": _cmd_fuzz_graph,
}

COMMANDS = {"fuzz": _cmd_fuzz}
