"""The ``fleet`` command group: the multi-process execution fabric."""

from __future__ import annotations

from typing import Optional


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

    smoke = fleet_smoke(
        workers=args.workers, queue_path=args.queue,
        sync=args.sync, batch=args.batch,
    )
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


def _cmd_fleet_status(args) -> int:
    import json as _json
    import os as _os

    from repro.fleet import JobQueue

    if not _os.path.exists(args.queue):
        print("no queue at {}".format(args.queue))
        return 2
    queue = JobQueue(args.queue)
    try:
        stats = queue.stats()
    finally:
        queue.close()
    if args.json:
        print(_json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(
            "queue {}: {} job(s) — {} pending, {} leased, {} acked, "
            "{} dead-lettered; {} requeue(s), {} duplicate ack(s), "
            "{} torn byte(s)".format(
                stats["path"], stats["jobs"], stats["depth"],
                stats["leased"], stats["acked"], stats["dead"],
                stats["requeues"], stats["duplicate_acks"],
                stats["torn_bytes"],
            )
        )
        print(
            "journal  : {} byte(s), {} record(s) scanned at open, "
            "{} compaction(s)".format(
                stats["journal_bytes"], stats["records_scanned"],
                stats["compactions"],
            )
        )
        print(
            "durability: sync={}, {} fsync(s) for {} final record(s) "
            "({} group flush(es), {} unflushed)".format(
                stats["sync"], stats["fsyncs"], stats["ack_records"],
                stats["ack_flushes"], stats["unflushed_acks"],
            )
        )
    return 0


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


def _cmd_fleet_drain(args) -> int:
    import json as _json

    from repro.fleet import FleetScheduler, JobQueue

    queue = JobQueue(args.queue, sync=args.sync)
    try:
        orphans = queue.recover_leases()
        pending = [queue.job(job_id) for job_id in queue.pending_ids()]
        if not pending:
            print("queue {} already drained ({} acked)".format(
                args.queue, queue.acked
            ))
            return 0
        scheduler = FleetScheduler(
            pending, workers=args.workers, queue=queue, batch=args.batch,
        )
        report = scheduler.run()
        stats = queue.stats()
    finally:
        queue.close()
    if args.json:
        print(_json.dumps(
            {
                "recovered_leases": len(orphans),
                "report": report.to_json(),
                "queue": stats,
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(
            "recovered {} orphaned lease(s); ran {} job(s): {}".format(
                len(orphans), len(report.outcomes),
                ", ".join(
                    "{}={}".format(k, v) for k, v in report.counts.items()
                ),
            )
        )
        print("queue now: {} pending, {} acked, {} dead-lettered".format(
            stats["depth"], stats["acked"], stats["dead"]
        ))
    return 0 if report.ok else 1


def _cmd_fleet_chaos(args) -> int:
    import json as _json

    from repro.fleet import storage_chaos, storage_chaos_gate

    rounds = 1 if args.smoke else args.rounds
    jobs = 4 if args.smoke else args.jobs
    report = storage_chaos(
        args.seed, rounds=rounds, jobs=jobs, sync=args.sync
    )
    gate = storage_chaos_gate(report)
    if args.json:
        print(_json.dumps(
            {"report": report, "gate": gate}, indent=2, sort_keys=True
        ))
    else:
        print(
            "storage chaos seed {} (sync={}): {} schedule(s), "
            "{} fault(s) fired, "
            "{} lost ack(s), {} duplicate completion(s), "
            "{} silently-wrong state(s), {}/{} corruption(s) "
            "detected".format(
                args.seed, report["sync"],
                len(report["entries"]), report["faults_fired"],
                report["lost_acks"], report["duplicate_completions"],
                report["silently_wrong"], report["corruptions_detected"],
                report["corruptions_injected"],
            )
        )
    failures = [name for name, ok in sorted(gate.items()) if not ok]
    for name in failures:
        print("GATE FAIL: " + name)
    if not failures:
        print("gate: PASS")
    return 1 if failures else 0


def _cmd_fleet_compact(args) -> int:
    import json as _json
    import os as _os

    from repro.fleet import JobQueue

    if not _os.path.exists(args.queue):
        print("no queue at {}".format(args.queue))
        return 2
    with JobQueue(args.queue, compact_threshold=None) as queue:
        result = queue.compact()
        stats = queue.stats()
    if args.json:
        print(_json.dumps(
            {"compact": result, "queue": stats}, indent=2, sort_keys=True
        ))
    else:
        print(
            "compacted {}: {} -> {} byte(s) ({} -> {} record(s)); "
            "{} pending, {} leased, {} acked, {} dead-lettered".format(
                args.queue, result["bytes_before"], result["bytes_after"],
                result["records_before"], result["records_after"],
                stats["depth"], stats["leased"], stats["acked"],
                stats["dead"],
            )
        )
    return 0


def _cmd_fleet_dlq(args) -> int:
    import json as _json
    import os as _os

    from repro.fleet import JobQueue

    if not _os.path.exists(args.queue):
        print("no queue at {}".format(args.queue))
        return 2
    with JobQueue(args.queue) as queue:
        if args.action == "list":
            dead = queue.dead_ids()
            if args.json:
                print(_json.dumps(
                    [
                        dict(queue.dead_info(job_id), id=job_id,
                             kind=queue.job(job_id).kind)
                        for job_id in dead
                    ],
                    indent=2, sort_keys=True,
                ))
            else:
                if not dead:
                    print("dead-letter queue empty")
                for job_id in dead:
                    info = queue.dead_info(job_id)
                    print("{}  {}  worker={}  {}".format(
                        job_id, queue.job(job_id).kind, info["worker"],
                        info["reason"],
                    ))
            return 0
        if not args.job_id:
            print("fleet dlq {} needs a job id".format(args.action))
            return 2
        if args.action == "show":
            if args.job_id not in queue.dead_ids():
                print("job {} is not dead-lettered".format(args.job_id))
                return 2
            print(_json.dumps(
                {
                    "id": args.job_id,
                    "job": queue.job(args.job_id).to_json(),
                    "dead": queue.dead_info(args.job_id),
                },
                indent=2, sort_keys=True,
            ))
            return 0
        # requeue
        if not queue.requeue_dead(args.job_id):
            print("job {} is not dead-lettered".format(args.job_id))
            return 2
        print("requeued {}; queue now {} pending, {} dead".format(
            args.job_id, queue.depth, queue.dead
        ))
        return 0


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
        "--queue", default=None,
        help="mirror job lifecycle into a crash-safe persistent queue",
    )
    run.add_argument(
        "--sync", choices=("eager", "group"), default="eager",
        help="queue ack durability: per-ack fsync or group-commit",
    )
    run.add_argument(
        "--batch", type=int, default=1,
        help="jobs leased/shipped per worker round-trip",
    )
    run.add_argument("--json", action="store_true")

    status = fleet_sub.add_parser(
        "status", help="inspect a persistent job queue"
    )
    status.add_argument("--queue", default="fleet.queue")
    status.add_argument("--json", action="store_true")

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

    drain = fleet_sub.add_parser(
        "drain", help="recover a crashed queue and run its remaining jobs"
    )
    drain.add_argument("--queue", required=True)
    drain.add_argument("--workers", type=int, default=2)
    drain.add_argument(
        "--sync", choices=("eager", "group"), default="eager",
        help="queue ack durability: per-ack fsync or group-commit",
    )
    drain.add_argument(
        "--batch", type=int, default=1,
        help="jobs leased/shipped per worker round-trip",
    )
    drain.add_argument("--json", action="store_true")

    chaos = fleet_sub.add_parser(
        "chaos",
        help="replay queue schedules under injected storage faults",
    )
    chaos.add_argument("--seed", type=int, default=2026)
    chaos.add_argument("--rounds", type=int, default=2)
    chaos.add_argument("--jobs", type=int, default=6)
    chaos.add_argument(
        "--sync", choices=("eager", "group"), default="eager",
        help="queue ack durability discipline under fault injection",
    )
    chaos.add_argument(
        "--smoke", action="store_true",
        help="one small round of every scenario; gate on the result (CI)",
    )
    chaos.add_argument("--json", action="store_true")

    compact = fleet_sub.add_parser(
        "compact",
        help="fold a queue journal's history into one snapshot record",
    )
    compact.add_argument("--queue", required=True)
    compact.add_argument("--json", action="store_true")

    dlq = fleet_sub.add_parser(
        "dlq", help="inspect or requeue dead-lettered (poison) jobs"
    )
    dlq.add_argument("action", choices=("list", "show", "requeue"))
    dlq.add_argument("job_id", nargs="?")
    dlq.add_argument("--queue", required=True)
    dlq.add_argument("--json", action="store_true")


SUBCOMMANDS = {
    "run": _cmd_fleet_run,
    "status": _cmd_fleet_status,
    "workers": _cmd_fleet_workers,
    "drain": _cmd_fleet_drain,
    "chaos": _cmd_fleet_chaos,
    "compact": _cmd_fleet_compact,
    "dlq": _cmd_fleet_dlq,
}

COMMANDS = {"fleet": _cmd_fleet}
