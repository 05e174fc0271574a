"""The ``status`` command: one roll-up of the whole checking stack.

Runs one observed workload and reports, in a single document, what an
operator asks first: which pipeline is installed, what the governor did
to stay inside budget, how the process-wide compile caches are doing,
and what telemetry saw — the same numbers ``repro obs``, ``repro
pipeline show``, and ``repro resilience status`` each show in depth.
"""

from __future__ import annotations


def _pipeline_section(substrate: str) -> dict:
    """The installed stage stack, from a real plan for ``substrate``."""
    from repro.obs import ObsHub
    from repro.resilience.governor import OverheadGovernor

    hub = ObsHub()
    governor = OverheadGovernor(clock=hub.clock)
    if substrate == "pyc":
        from repro.pyc import PyCChecker, PythonInterpreter

        checker = PyCChecker(governor=governor, telemetry=hub)
        PythonInterpreter(agents=[checker])
        plan = checker._plan
    else:
        from repro.jinn.agent import JinnAgent
        from repro.jvm import HOTSPOT, JavaVM

        agent = JinnAgent(governor=governor, telemetry=hub)
        JavaVM(vendor=HOTSPOT, agents=[agent])
        plan = agent._pipeline_plan()
    described = plan.describe()
    return {
        "pipeline": "fused",
        "mode": described["mode"],
        "functions": described["functions"],
        "checked_sites": described["checked_sites"],
        "stages": [s["name"] for s in described["interceptors"]],
    }


def _fleet_section(seed: int) -> dict:
    """Exercise the fabric on self-contained trial jobs; report load.

    Generated workloads only (no file dependencies) on two inline
    workers, so ``repro status`` shows real requeue / utilization
    numbers without touching the working directory.
    """
    from repro.fleet import FleetScheduler, bench_trial_jobs

    jobs = bench_trial_jobs(seed, 4)
    report = FleetScheduler(jobs, workers=2, seed=seed, inline=True).run()
    return {
        "jobs": len(jobs),
        "counts": report.counts,
        "ok": report.ok,
        "requeues": report.requeues,
        "breaker_trips": sum(report.breaker_trips),
        "utilization": report.utilization,
    }


def _cmd_status(args) -> int:
    import json as _json

    from repro.core.cache import WRAPPER_CACHE
    from repro.obs import observed_run

    report = observed_run(
        args.seed,
        substrate=args.substrate,
        repeats=args.repeats,
        budget=args.budget,
        window=args.window,
    )
    status = {
        "schema": 1,
        "workload": {
            "seed": report["seed"],
            "substrate": report["substrate"],
            "ops": report["ops"],
            "outcome": report["outcome"],
            "violations": report["violations"],
        },
        "pipeline": _pipeline_section(args.substrate),
        "governor": report["governor"],
        "cache": WRAPPER_CACHE.stats(),
        "obs": report["summary"],
        "fleet": _fleet_section(args.seed),
    }
    if args.json:
        print(_json.dumps(status, indent=2, sort_keys=True))
        return 0
    workload = status["workload"]
    pipeline = status["pipeline"]
    governor = status["governor"]
    cache = status["cache"]
    obs = status["obs"]
    print(
        "workload : seed {} [{}] {} op(s) -> {} ({} violation(s))".format(
            workload["seed"], workload["substrate"], workload["ops"],
            workload["outcome"], workload["violations"],
        )
    )
    print(
        "pipeline : {} / {} ({}), {} function(s), {} checked site(s)".format(
            pipeline["mode"], pipeline["pipeline"],
            " -> ".join(pipeline["stages"]),
            pipeline["functions"], pipeline["checked_sites"],
        )
    )
    print(
        "governor : share {:.1%} of budget {:.0%}, {} rebalance(s), "
        "{} degraded pair(s)".format(
            governor["share"], governor["budget"], governor["rebalances"],
            len(governor["degraded"]),
        )
    )
    print(
        "cache    : {} plan module(s), {} hit(s) / "
        "{} miss(es); disk {}: {} hit(s) / {} miss(es), {} write(s)".format(
            cache["plan_modules"],
            cache["hits"], cache["misses"],
            "on" if cache["disk_enabled"] else "off",
            cache["disk_hits"], cache["disk_misses"], cache["disk_writes"],
        )
    )
    print(
        "obs      : {} crossing(s), {} series, {} span(s) kept, "
        "{} violation cluster(s)".format(
            obs["crossings"], obs["series"], obs["spans_kept"],
            obs["violation_clusters"],
        )
    )
    fleet = status["fleet"]
    print(
        "fleet    : {} job(s) {}, {} requeue(s), {} breaker trip(s), "
        "utilization {:.0%}".format(
            fleet["jobs"], "ok" if fleet["ok"] else "NOT OK",
            fleet["requeues"], fleet["breaker_trips"],
            fleet["utilization"],
        )
    )
    return 0


def add_parsers(sub) -> None:
    status = sub.add_parser(
        "status", help="one roll-up of pipeline, governor, caches, telemetry"
    )
    status.add_argument("--seed", type=int, default=2026)
    status.add_argument("--substrate", choices=("jni", "pyc"), default="pyc")
    status.add_argument("--repeats", type=int, default=8)
    status.add_argument("--budget", type=float, default=0.3)
    status.add_argument("--window", type=int, default=64)
    status.add_argument(
        "--json", action="store_true", help="print the canonical document"
    )


COMMANDS = {"status": _cmd_status}
