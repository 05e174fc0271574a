"""The ``pipeline`` command group: inspect the compiled plan.

``repro pipeline show`` builds a real checker for the chosen substrate,
resolves its :class:`repro.pipeline.PipelinePlan` through the shared
wrapper cache, and prints the compiled picture: the stage stack,
per-function fused op lists, and the cache statistics — so tooling no
longer scrapes ``WrapperCache.stats()`` from ``dispatch`` stdout.
"""

from __future__ import annotations


def _build_plan(substrate: str, mode: str):
    if substrate == "pyc":
        from repro.pipeline import PipelinePlan
        from repro.pyc import PyCChecker, PythonInterpreter
        from repro.pyc.spec import PY_FUNCTIONS

        checker = PyCChecker()
        PythonInterpreter(agents=[checker])
        if mode == "generated":
            return checker._plan
        return PipelinePlan(checker.rt, checker.registry, PY_FUNCTIONS, mode=mode)
    from repro.jinn.agent import JinnAgent
    from repro.jvm import JavaVM

    agent = JinnAgent(mode=mode)
    JavaVM(agents=[agent])
    return agent._pipeline_plan()


def _cmd_pipeline_show(args) -> int:
    from repro.core.cache import WRAPPER_CACHE
    from repro.core.dispatch import NATIVE_KEY

    plan = _build_plan(args.substrate, args.mode)
    described = plan.describe()
    described["substrate"] = args.substrate
    described["wrapper_cache"] = WRAPPER_CACHE.stats()
    if args.json:
        import json as _json

        print(_json.dumps(described, indent=2, sort_keys=True))
        return 0
    print("substrate:     " + args.substrate)
    print("mode:          " + described["mode"])
    print("functions:     {}".format(described["functions"]))
    print("checked sites: {}".format(described["checked_sites"]))
    print("interceptors (outermost first):")
    for stage in described["interceptors"]:
        detail = ", ".join(
            "{}={}".format(k, v)
            for k, v in sorted(stage.items())
            if k != "name"
        )
        print("  {:<12} {}".format(stage["name"], detail))
    per_function = described["per_function"]
    names = [args.function] if args.function else [NATIVE_KEY]
    for name in names:
        if name not in per_function:
            print("unknown function: {}".format(name))
            return 2
        print("fused entry for {}:".format(name))
        for step in per_function[name]:
            print("  " + step)
    print("wrapper cache:")
    for key, value in described["wrapper_cache"].items():
        print("  {:<18} {}".format(key, value))
    return 0


def _cmd_pipeline(args) -> int:
    return SUBCOMMANDS[args.pipeline_command](args)


def add_parsers(sub) -> None:
    pipeline = sub.add_parser(
        "pipeline", help="inspect the fused call pipeline"
    )
    pipe_sub = pipeline.add_subparsers(dest="pipeline_command", required=True)

    show = pipe_sub.add_parser(
        "show", help="print the compiled plan for one substrate"
    )
    show.add_argument(
        "--substrate", choices=("jni", "pyc"), default="jni"
    )
    show.add_argument(
        "--mode",
        choices=("generated", "interpose"),
        default="generated",
    )
    show.add_argument(
        "--function", default=None,
        help="show the fused op list for one function "
             "(default: the native-method entry)",
    )
    show.add_argument(
        "--json", action="store_true",
        help="print the full plan description as canonical JSON",
    )


SUBCOMMANDS = {"show": _cmd_pipeline_show}

COMMANDS = {"pipeline": _cmd_pipeline}
