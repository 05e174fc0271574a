"""The ``resilience`` command group: containment and the governor."""

from __future__ import annotations


def _cmd_resilience_chaos(args) -> int:
    import json as _json

    from repro.resilience import chaos_gate, chaos_run

    report = chaos_run(
        args.seed, substrate=args.substrate, rounds=args.rounds
    )
    gate = chaos_gate(report)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            "chaos seed {} [{}]: {} run(s), {} machine(s) faulted, "
            "{} quarantined, {} host crash(es), {} unanswered fault(s)".format(
                report["seed"], report["substrate"], len(report["runs"]),
                report["machines_faulted"], report["machines_quarantined"],
                report["host_crashes"], report["unanswered_faults"],
            )
        )
        never = report["machines_never_faulted"]
        if never:
            print("never exercised by this workload: " + ", ".join(never))
    failures = [name for name, ok in sorted(gate.items()) if not ok]
    if failures:
        for name in failures:
            print("GATE FAIL: " + name)
        return 1
    print("gate: PASS")
    return 0


def _cmd_resilience_status(args) -> int:
    import json as _json

    from repro.resilience import GovernorPolicy, governed_run

    policy = GovernorPolicy(budget=args.budget)
    report = governed_run(
        args.seed,
        substrate=args.substrate,
        policy=policy,
        repeats=args.repeats,
    )
    print(_json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_resilience(args) -> int:
    return SUBCOMMANDS[args.resilience_command](args)


def add_parsers(sub) -> None:
    resilience = sub.add_parser(
        "resilience", help="checker containment and the overhead governor"
    )
    res_sub = resilience.add_subparsers(
        dest="resilience_command", required=True
    )

    chaos = res_sub.add_parser(
        "chaos", help="inject internal checker faults; prove containment"
    )
    chaos.add_argument("--seed", type=int, default=2026)
    chaos.add_argument("--rounds", type=int, default=1)
    chaos.add_argument(
        "--substrate", choices=("both", "jni", "pyc"), default="both"
    )
    chaos.add_argument(
        "--json", action="store_true", help="print the canonical report"
    )

    status = res_sub.add_parser(
        "status", help="run one governed workload; print the governor report"
    )
    status.add_argument("--seed", type=int, default=2026)
    status.add_argument(
        "--substrate", choices=("jni", "pyc"), default="pyc"
    )
    status.add_argument("--budget", type=float, default=0.3)
    status.add_argument("--repeats", type=int, default=8)


SUBCOMMANDS = {
    "chaos": _cmd_resilience_chaos,
    "status": _cmd_resilience_status,
}

COMMANDS = {"resilience": _cmd_resilience}
