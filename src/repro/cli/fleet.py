"""The ``fleet`` command group: the multi-process execution fabric."""

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


def _print_load(report) -> None:
    load = report.load_json()
    print(
        "fleet    : {} worker(s), {} requeue(s)".format(
            load["workers"], load["requeues"]
        )
    )
    print(
        "cpu      : serial {:.3f}s, critical path {:.3f}s, "
        "utilization {:.0%}".format(
            load["serial_cpu_seconds"], load["critical_path_seconds"],
            load["utilization"],
        )
    )


def _cmd_fleet_run(args) -> int:
    import json as _json

    from repro.fleet import fleet_smoke

    smoke = fleet_smoke(workers=args.workers, batch=args.batch)
    if args.json:
        print(_json.dumps(smoke, indent=2, sort_keys=True))
    else:
        print(
            "smoke: {} trace(s) on {} worker(s): {} events, "
            "{} violation(s), stream {}".format(
                smoke["traces"], smoke["workers"], smoke["events"],
                smoke["violations"],
                "identical" if smoke["stream_identical"] else "DRIFT",
            )
        )
    print("gate: " + ("PASS" if smoke["ok"] else "FAIL"))
    return 0 if smoke["ok"] else 1


def _cmd_fleet_workers(args) -> int:
    import json as _json

    from repro.fleet import FleetScheduler, bench_trial_jobs

    jobs = bench_trial_jobs(args.seed, args.trials, substrate=args.substrate)
    scheduler = FleetScheduler(
        jobs, workers=args.workers, seed=args.seed,
        inline=args.workers <= 0,
    )
    report = scheduler.run()
    if args.json:
        print(_json.dumps(
            {"report": report.to_json(), "load": report.load_json()},
            indent=2, sort_keys=True,
        ))
    else:
        print("{} trial job(s) on {} worker(s): {}".format(
            args.trials, report.workers,
            ", ".join("{}={}".format(k, v) for k, v in report.counts.items()),
        ))
        for index, busy in enumerate(report.worker_busy_seconds):
            print("  worker {}: {:.3f}s busy".format(index, busy))
        _print_load(report)
    return 0 if report.ok else 1


def _cmd_fleet(args) -> int:
    return SUBCOMMANDS[args.fleet_command](args)


def add_parsers(sub) -> None:
    fleet = sub.add_parser(
        "fleet", help="multi-process execution fabric"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    run = fleet_sub.add_parser(
        "run", help="the fleet smoke: the regression corpus on fleet workers"
    )
    # Trace files replay through `trace replay --workers N`, and fuzz
    # campaigns run through `fuzz run --workers N`.
    run.add_argument(
        "--smoke", action="store_true", required=True,
        help="replay the regression corpus; gate on stream identity (CI)",
    )
    run.add_argument("--workers", type=int, default=2)
    run.add_argument(
        "--batch", type=int, default=1,
        help="jobs shipped per worker round-trip",
    )
    run.add_argument("--json", action="store_true")

    workers = fleet_sub.add_parser(
        "workers", help="exercise the fabric; report per-worker load"
    )
    workers.add_argument("--workers", type=int, default=2)
    workers.add_argument("--trials", type=int, default=8)
    workers.add_argument("--seed", type=int, default=2026)
    workers.add_argument(
        "--substrate", choices=("jni", "pyc"), default="pyc"
    )
    workers.add_argument("--json", action="store_true")


SUBCOMMANDS = {
    "run": _cmd_fleet_run,
    "workers": _cmd_fleet_workers,
}

COMMANDS = {"fleet": _cmd_fleet}
