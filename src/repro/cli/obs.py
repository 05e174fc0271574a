"""The ``obs`` command group: observe a checked run.

Every subcommand either runs one observed workload (seeded, so two
invocations with ``--fake-clock`` print byte-identical output) or reads
a snapshot file a previous ``snapshot -o`` wrote — ``diff`` always
takes two files, because diffing only makes sense between two points of
the same process.
"""

from __future__ import annotations

import json


def _run_snapshot(args):
    from repro.core.clock import FakeClock
    from repro.obs import observed_run

    clock = FakeClock() if getattr(args, "fake_clock", False) else None
    return observed_run(
        args.seed,
        substrate=args.substrate,
        repeats=args.repeats,
        budget=args.budget,
        clock=clock,
    )


def _load_or_run(args):
    """A snapshot dict: from ``--input`` if given, else a fresh run."""
    if getattr(args, "input", None):
        with open(args.input) as fh:
            return json.load(fh)
    return _run_snapshot(args)["snapshot"]


def _cmd_obs_snapshot(args) -> int:
    from repro.obs import canonical_json

    report = _run_snapshot(args)
    text = canonical_json(report["snapshot"])
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        summary = report["summary"]
        print(
            "wrote {} ({} crossings, {} series, {} cluster(s))".format(
                args.output, summary["crossings"], summary["series"],
                summary["violation_clusters"],
            )
        )
    else:
        print(text, end="")
    return 0


def _cmd_obs_top(args) -> int:
    from repro.obs import top_sites

    snapshot = _load_or_run(args)
    rows = top_sites(snapshot, n=args.limit, by=args.by)
    if not rows:
        print("no crossing series in snapshot")
        return 0
    header = "{:<28} {:<18} {:>8} {:>12} {:>10}".format(
        "function", "direction", "calls", "total_ns", "mean_ns"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            "{:<28} {:<18} {:>8} {:>12} {:>10}".format(
                row["function"], row["direction"], row["calls"],
                row["total_ns"], row["mean_ns"],
            )
        )
    clusters = snapshot.get("triage", {}).get("clusters", [])
    if clusters:
        print()
        print("violation clusters (by count):")
        ranked = sorted(clusters, key=lambda c: (-c["count"], c["id"]))
        for cluster in ranked[: args.limit]:
            print(
                "  {} x{} {} [{}] {}".format(
                    cluster["id"], cluster["count"], cluster["machine"],
                    cluster["error_state"], cluster["example"],
                )
            )
    return 0


def _cmd_obs_diff(args) -> int:
    from repro.obs import canonical_json, diff_snapshots

    with open(args.before) as fh:
        before = json.load(fh)
    with open(args.after) as fh:
        after = json.load(fh)
    print(canonical_json(diff_snapshots(before, after)), end="")
    return 0


def _cmd_obs_export(args) -> int:
    from repro.obs import canonical_json, to_prometheus

    snapshot = _load_or_run(args)
    if args.format == "prometheus":
        print(to_prometheus(snapshot), end="")
    else:
        print(canonical_json(snapshot), end="")
    return 0


def _cmd_obs(args) -> int:
    return SUBCOMMANDS[args.obs_command](args)


def _add_run_options(parser, with_input: bool) -> None:
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--substrate", choices=("jni", "pyc"), default="pyc")
    parser.add_argument("--repeats", type=int, default=8)
    parser.add_argument("--budget", type=float, default=0.3)
    parser.add_argument(
        "--fake-clock", action="store_true",
        help="deterministic virtual time (byte-identical reruns)",
    )
    if with_input:
        parser.add_argument(
            "--input", default=None,
            help="read this snapshot file instead of running a workload",
        )


def add_parsers(sub) -> None:
    obs = sub.add_parser("obs", help="observe a checked run")
    obs_sub = sub = obs.add_subparsers(dest="obs_command", required=True)

    snapshot = obs_sub.add_parser(
        "snapshot", help="run one observed workload; print/save the snapshot"
    )
    _add_run_options(snapshot, with_input=False)
    snapshot.add_argument("-o", "--output", default=None)

    top = obs_sub.add_parser(
        "top", help="hottest crossing sites and violation clusters"
    )
    _add_run_options(top, with_input=True)
    top.add_argument("--by", choices=("time", "calls"), default="time")
    top.add_argument("-n", "--limit", type=int, default=10)

    diff = obs_sub.add_parser(
        "diff", help="what changed between two snapshot files"
    )
    diff.add_argument("before", help="earlier snapshot JSON")
    diff.add_argument("after", help="later snapshot JSON")

    export = obs_sub.add_parser(
        "export", help="export a snapshot (Prometheus text or JSON)"
    )
    _add_run_options(export, with_input=True)
    export.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus"
    )


SUBCOMMANDS = {
    "snapshot": _cmd_obs_snapshot,
    "top": _cmd_obs_top,
    "diff": _cmd_obs_diff,
    "export": _cmd_obs_export,
}

COMMANDS = {"obs": _cmd_obs}
