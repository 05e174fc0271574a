"""Paper artifacts: tables, figures, catalogs, and the demo runner."""

from __future__ import annotations


def _cmd_table1(args) -> int:
    from repro.workloads.microbench import TABLE1_ROWS, scenario_by_name
    from repro.workloads.outcomes import run_all_configurations

    columns = ("HotSpot", "J9", "HotSpot-xcheck", "J9-xcheck", "Jinn")
    print(
        "{:<4}{:<38}".format("#", "JNI pitfall")
        + "".join("{:<13}".format(c) for c in columns)
    )
    for pitfall, description, scenario_name in TABLE1_ROWS:
        row = run_all_configurations(scenario_by_name(scenario_name).run)
        print(
            "{:<4}{:<38}".format(pitfall, description)
            + "".join("{:<13}".format(row[c]) for c in columns)
        )
    return 0


def _cmd_table2(args) -> int:
    from repro.jni.functions import census

    for key, value in census().items():
        print("{:<20} {}".format(key, value))
    return 0


def _cmd_coverage(args) -> int:
    from repro.workloads.microbench import MICROBENCHMARKS
    from repro.workloads.outcomes import VALID_REPORTS, run_all_configurations

    jinn = hotspot = j9 = 0
    for scenario in MICROBENCHMARKS:
        row = run_all_configurations(scenario.run)
        jinn += row["Jinn"] in VALID_REPORTS
        hotspot += row["HotSpot-xcheck"] in VALID_REPORTS
        j9 += row["J9-xcheck"] in VALID_REPORTS
        print(
            "{:<18} HotSpot={:<9} J9={:<9} Jinn={}".format(
                scenario.name,
                row["HotSpot-xcheck"],
                row["J9-xcheck"],
                row["Jinn"],
            )
        )
    total = len(MICROBENCHMARKS)
    print(
        "coverage: Jinn {}/{}  HotSpot {}/{}  J9 {}/{}".format(
            jinn, total, hotspot, total, j9, total
        )
    )
    return 0


def _cmd_machines(args) -> int:
    from repro.jinn.catalog import render_catalog

    print(render_catalog())
    return 0


def _cmd_generate(args) -> int:
    from repro.jinn import Synthesizer, build_registry

    synthesizer = Synthesizer(build_registry())
    source = synthesizer.generate_pipeline_source(
        checking=not args.interpose_only
    )
    if args.output:
        with open(args.output, "w") as f:
            f.write(source)
        print("wrote {} lines to {}".format(source.count("\n") + 1, args.output))
    else:
        print(source)
    return 0


def _cmd_fig9(args) -> int:
    from repro.jvm import HOTSPOT, J9
    from repro.workloads.microbench import exception_state
    from repro.workloads.outcomes import run_scenario

    for label, vendor, checker in (
        ("HotSpot -Xcheck:jni", HOTSPOT, "xcheck"),
        ("J9 -Xcheck:jni", J9, "xcheck"),
        ("Jinn", HOTSPOT, "jinn"),
    ):
        result = run_scenario(exception_state, vendor=vendor, checker=checker)
        print("== {} ==".format(label))
        print("\n".join(result.diagnostics))
        if checker == "jinn" and result.exception_text:
            print(result.exception_text)
        print()
    return 0


def _cmd_fig10(args) -> int:
    from repro.workloads.casestudies import local_ref_time_series

    for label, fixed in (("original", False), ("fixed", True)):
        series = local_ref_time_series(fixed=fixed, entries=args.entries)
        print(
            "{:<9} peak={:<4} series={}".format(
                label, max(series), " ".join(map(str, series))
            )
        )
    return 0


def _cmd_fig11(args) -> int:
    from repro.fsm.errors import FFIViolation
    from repro.pyc import PyCChecker, PythonInterpreter

    def dangle_bug(api, self_obj, call_args):
        pythons = api.Py_BuildValue(
            "[ssssss]", "Eric", "Graham", "John", "Michael", "Terry", "Terry"
        )
        first = api.PyList_GetItem(pythons, 0)
        print("1. first = {}.".format(api.PyString_AsString(first)))
        api.Py_DecRef(pythons)
        print("2. first = {}.".format(api.PyString_AsString(first)))
        return api.Py_RETURN_NONE()

    for label, reuse, checked in (
        ("unchecked (no memory reuse)", False, False),
        ("unchecked (memory reuse)", True, False),
        ("synthesized checker", False, True),
    ):
        print("== {} ==".format(label))
        agents = [PyCChecker()] if checked else []
        interp = PythonInterpreter(reuse_memory=reuse, agents=agents)
        interp.register_extension("dangle_bug", dangle_bug)
        try:
            interp.call_extension("dangle_bug")
        except FFIViolation as violation:
            print("CHECKER: " + violation.report())
        print()
    return 0


def _cmd_demo(args) -> int:
    from repro.workloads.microbench import scenario_by_name
    from repro.workloads.outcomes import run_scenario
    from repro.jvm import HOTSPOT, J9

    vendor = J9 if args.vendor == "J9" else HOTSPOT
    scenario = scenario_by_name(args.scenario)
    result = run_scenario(scenario.run, vendor=vendor, checker=args.checker)
    print("scenario:  " + scenario.name)
    print("machine:   " + scenario.machine)
    print("outcome:   " + result.outcome)
    for line in result.diagnostics:
        print(line)
    if result.exception_text:
        print(result.exception_text)
    return 0


def add_parsers(sub) -> None:
    sub.add_parser("table1", help="pitfall x configuration matrix")
    sub.add_parser("table2", help="constraint classification counts")
    sub.add_parser("coverage", help="microbenchmark coverage comparison")
    sub.add_parser("machines", help="state machine catalog (Figures 6-8)")

    generate = sub.add_parser("generate", help="dump synthesized wrappers")
    generate.add_argument("-o", "--output", help="write to file")
    generate.add_argument(
        "--interpose-only",
        action="store_true",
        help="generate empty (interposition-only) wrappers",
    )

    sub.add_parser("fig9", help="error message comparison")
    fig10 = sub.add_parser("fig10", help="local-reference time series")
    fig10.add_argument("--entries", type=int, default=20)
    sub.add_parser("fig11", help="Python/C dangling borrow demo")

    demo = sub.add_parser("demo", help="run one microbenchmark")
    demo.add_argument("scenario", help="e.g. ExceptionState, LocalOverflow")
    demo.add_argument(
        "--checker", choices=("none", "xcheck", "jinn"), default="jinn"
    )
    demo.add_argument("--vendor", choices=("HotSpot", "J9"), default="HotSpot")


COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "coverage": _cmd_coverage,
    "machines": _cmd_machines,
    "generate": _cmd_generate,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "demo": _cmd_demo,
}
