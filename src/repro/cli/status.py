"""The ``status`` command: one roll-up of the whole checking stack.

Runs one observed workload and reports, in a single document, what an
operator asks first: which pipeline is installed, where the checking
time went (the governor's per-pair meter), how the process-wide compile
caches are doing, and what telemetry saw — the same numbers ``repro
obs``, ``repro pipeline show``, and ``repro resilience status`` each
show in depth.
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


def _governor_line(governor: dict) -> str:
    """Where the checking time went: the top pair and those over budget.

    The top pair and its share come from the function pairs, the set
    ``over_budget`` ranks: a native's pair also times its crossings.
    """
    from repro.resilience.governor import function_pairs

    metered = {
        name: pair["checked_ns"]
        for name, pair in governor["pairs"].items() if pair["calls"]
    }
    line = "governor : {} pair(s) metered".format(len(metered))
    metered = function_pairs(metered)
    total = sum(metered.values())
    if total:
        top = max(sorted(metered), key=metered.get)
        line += ", top {} with {:.1%} of checked time".format(
            top, metered[top] / total
        )
    return line + "; over budget {:.0%}: {}".format(
        governor["budget"], ", ".join(governor["over_budget"]) or "none"
    )


def _cmd_status(args) -> int:
    import json as _json

    from repro.core.cache import WRAPPER_CACHE
    from repro.obs import observed_run

    report = observed_run(
        args.seed,
        substrate=args.substrate,
        repeats=args.repeats,
        budget=args.budget,
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
    print(_governor_line(governor))
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
    return 0


def add_parsers(sub) -> None:
    status = sub.add_parser(
        "status", help="one roll-up of pipeline, governor, caches, telemetry"
    )
    status.add_argument("--seed", type=int, default=2026)
    status.add_argument("--substrate", choices=("jni", "pyc"), default="pyc")
    status.add_argument("--repeats", type=int, default=8)
    status.add_argument("--budget", type=float, default=0.3)
    status.add_argument(
        "--json", action="store_true", help="print the canonical document"
    )


COMMANDS = {"status": _cmd_status}
