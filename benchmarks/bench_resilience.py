"""Resilience subsystem gate (``BENCH_resilience.json``).

Three gates, all structural (timing-independent) per the repo's bench
convention — wall-clock numbers are reported alongside but never gated:

- **chaos** — internal faults injected into every machine at a fixed
  seed produce zero host crashes, every injected fault is answered by a
  quarantine diagnostic or a detected violation, and two same-seed
  chaos runs emit byte-identical reports.
- **recovery** — a recording run SIGKILLed before close leaves a
  journal that recovers to a replayable trace whose violation stream is
  a prefix of the uninterrupted same-seed run's stream (and non-empty:
  the crash must not eat the evidence).
- **governor** — the governor is a meter: on a deterministic fake
  clock every metered call runs its check; all 19 bug-free DaCapo
  kernels at Table 3 scale run governed with no report and no
  exception; and on a real governed workload the planted fault is
  still detected.  The pairs over budget are reported, not gated: they
  follow the host's timing.
"""

import json
import multiprocessing
import os
import signal
import tempfile
import time

from benchmarks.conftest import write_bench_json

CHAOS_SEED = 2026
RECOVERY_SEED = 7
GOVERNOR_SEED = 5


def _chaos_section() -> dict:
    from repro.resilience import chaos_gate, chaos_run

    start = time.perf_counter()
    first = chaos_run(CHAOS_SEED, substrate="both", rounds=1)
    seconds = time.perf_counter() - start
    second = chaos_run(CHAOS_SEED, substrate="both", rounds=1)
    reproducible = json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )
    gate = chaos_gate(first)
    return {
        "seed": CHAOS_SEED,
        "seconds": seconds,
        "runs": len(first["runs"]),
        "machines_faulted": first["machines_faulted"],
        "machines_quarantined": first["machines_quarantined"],
        "machines_never_faulted": first["machines_never_faulted"],
        "host_crashes": first["host_crashes"],
        "unanswered_faults": first["unanswered_faults"],
        "gate": dict(gate, reproducible=reproducible),
        "ok": all(gate.values()) and reproducible,
    }


def _recovery_section() -> dict:
    from repro.resilience import recover_journal
    from repro.resilience.recover import journaled_fuzz_record
    from repro.trace.replay import replay_path

    with tempfile.TemporaryDirectory() as d:
        journal = os.path.join(d, "crash.journal")
        full_trace = os.path.join(d, "full.trace")
        start = time.perf_counter()
        params = {
            "seed": RECOVERY_SEED, "substrate": "pyc", "journal": journal,
            "sync_every": 8, "faults": ["over_decref"], "die": True,
        }
        child = multiprocessing.Process(
            target=journaled_fuzz_record, args=(params,), daemon=True
        )
        child.start()
        child.join(300.0)
        code = child.exitcode  # None: still running after the join
        crashed = code == -signal.SIGKILL
        report = recover_journal(journal, os.path.join(d, "rec.trace"))
        journaled_fuzz_record({
            "seed": RECOVERY_SEED, "substrate": "pyc", "trace": full_trace,
            "sync_every": 8, "faults": ["over_decref"],
        })
        full = replay_path(full_trace)
        recovered = replay_path(report.out_path)
        seconds = time.perf_counter() - start
        n = len(recovered.violations)
        prefix_ok = recovered.violations == full.violations[:n]
        gate = {
            "shard_crashed": crashed,
            "journal_recovered": report.recovered_records > 0,
            "violations_survive": n > 0,
            "violation_prefix": prefix_ok,
        }
        return {
            "seed": RECOVERY_SEED,
            "seconds": seconds,
            "crash_detail": (
                "killed by signal {}".format(-code) if crashed
                else "exit code {}".format(code)
            ),
            "recovered_records": report.recovered_records,
            "dropped_bytes": report.dropped_bytes,
            "recovered_violations": n,
            "full_violations": len(full.violations),
            "gate": gate,
            "ok": all(gate.values()),
        }


def _governed_entries(gov, names):
    """Real fused entries, metered by ``gov``, over a synthetic table.

    One machine with one check before every function; on the fake clock
    (``rt.now``) the check costs 1000 and the raw function 1.  Returns
    ``(entries, rt)``; ``rt.checks`` counts the checks that ran, per
    function.
    """
    from collections import Counter

    from repro.fsm.events import Direction
    from repro.fsm.machine import (
        EntitySelector,
        FunctionSelector,
        LanguageTransition,
        State,
        StateMachineSpec,
        StateTransition,
    )
    from repro.fsm.registry import SpecRegistry
    from repro.jinn.synthesizer import Synthesizer
    from repro.jni.functions import FunctionMeta

    idle = State("Idle")

    class CostSpec(StateMachineSpec):
        name = "cost"

        def states(self):
            return [idle]

        def state_transitions(self):
            return [StateTransition(idle, idle)]

        def language_transitions_for(self, transition):
            return [
                LanguageTransition(
                    Direction.CALL_NATIVE_TO_MANAGED,
                    FunctionSelector("any function", lambda m: m is not None),
                    EntitySelector.NONE,
                )
            ]

        def emit(self, meta, direction):
            return ["rt.checks[{!r}] += 1".format(meta.name), "rt.now += 1000"]

    class CostRuntime:
        def __init__(self):
            self.now = 0
            self.checks = Counter()

        def clock(self):
            return self.now

    rt = CostRuntime()
    gov.clock_ns = rt.clock  # before the build: entries pre-bind it

    def raw(env):
        rt.now += 1
        return "ok"

    table = {name: FunctionMeta(name, "test", (), "void") for name in names}
    build = Synthesizer(
        SpecRegistry([CostSpec()]), function_table=table
    ).build_pipeline(govern=True)
    entries, _ = build(rt, {name: raw for name in names}, None, gov)
    return entries, rt


def _valid_kernels() -> dict:
    """All 19 bug-free DaCapo kernels at Table 3 scale, governed."""
    from repro.core.clock import FakeClock
    from repro.jinn.agent import JinnAgent
    from repro.jvm import JavaVM
    from repro.resilience import OverheadGovernor
    from repro.workloads.dacapo import (
        BENCHMARK_NAMES,
        build_workload,
        iterations_for,
    )

    reports = {}
    exceptions = {}
    for name in BENCHMARK_NAMES:
        agent = JinnAgent(governor=OverheadGovernor(clock=FakeClock()))
        vm = JavaVM(agents=[agent])
        build_workload(vm, name)
        try:
            vm.call_static(
                "dacapo/" + name, "kernel", "(I)V",
                iterations_for(name, 1000),
            )
            vm.shutdown()
        except Exception as exc:
            exceptions[name] = type(exc).__name__
        if agent.rt.violations:
            reports[name] = len(agent.rt.violations)
    return {
        "kernels": len(BENCHMARK_NAMES),
        "reports": reports,
        "exceptions": exceptions,
    }


def _governor_section() -> dict:
    from repro.fuzz.faults import fault_by_name
    from repro.fuzz.engine import task_rng
    from repro.fuzz.gen import generate_sequence
    from repro.fuzz.ops import run_pyc_ops
    from repro.resilience import GovernorPolicy, OverheadGovernor

    policy = GovernorPolicy()
    # Part 1 — the meter on a fake clock, through real governed fused
    # entries: a pair whose check is 1000x its raw cost and a pair
    # called 4 times; every metered call ran the generated check.
    gov = OverheadGovernor(policy)
    entries, rt = _governed_entries(gov, ("hot", "cold"))
    for i in range(400):
        entries["hot"](None)
        if i % 100 == 0:
            entries["cold"](None)
    synthetic = {
        name: {
            "calls": gov.pairs[name].calls,
            "checks": rt.checks[name],
            "checked_ns": gov.pairs[name].checked_ns,
        }
        for name in ("hot", "cold")
    }
    # Part 2 — the valid DaCapo kernels: a governed run checks every
    # crossing, so none reports.
    start = time.perf_counter()
    kernels = _valid_kernels()
    kernels["seconds"] = time.perf_counter() - start
    # Part 3 — a real governed workload: the planted over_decref must
    # still be detected.
    faulty = fault_by_name("over_decref").inject(
        task_rng(GOVERNOR_SEED, "bench-governor-fault"),
        generate_sequence(
            task_rng(GOVERNOR_SEED, "bench-governor", "pyc"), "pyc"
        ),
    )
    start = time.perf_counter()
    workload_governor = OverheadGovernor(policy)
    outcome = run_pyc_ops(
        [tuple(op) for op in faulty.ops], governor=workload_governor
    )
    seconds = time.perf_counter() - start
    workload_report = workload_governor.report()
    detected = {v.machine for v in outcome.violations}
    gate = {
        "every_call_checked": all(
            pair["checks"] == pair["calls"] > 0
            for pair in synthetic.values()
        ),
        "valid_kernels_clean": not kernels["reports"]
        and not kernels["exceptions"],
        "workload_detection_intact": "owned_ref" in detected,
    }
    return {
        "seed": GOVERNOR_SEED,
        "seconds": seconds,
        "policy": {"budget": policy.budget},
        "synthetic": synthetic,
        "valid_kernels": kernels,
        "workload": {
            "pairs": len(workload_report["pairs"]),
            "over_budget": workload_report["over_budget"],
            "violations_detected": sorted(detected),
        },
        "gate": gate,
        "ok": all(gate.values()),
    }


def run_resilience_quick(out_path: str) -> dict:
    report = {
        "chaos": _chaos_section(),
        "recovery": _recovery_section(),
        "governor": _governor_section(),
    }
    report["gate"] = {
        "chaos_ok": report["chaos"]["ok"],
        "recovery_ok": report["recovery"]["ok"],
        "governor_ok": report["governor"]["ok"],
    }
    write_bench_json(out_path, report, thresholds={
        "host_crashes_max": 0,
        "unanswered_faults_max": 0,
    })
    return report


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Quick resilience benchmark gate"
    )
    parser.add_argument(
        "--quick", action="store_true", help="run the resilience gate"
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_resilience.json",
        ),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if not args.quick:
        parser.error("this entry point only supports --quick")
    report = run_resilience_quick(args.out)
    chaos = report["chaos"]
    print(
        "chaos: {} runs, {} machines faulted, {} quarantined, "
        "{} host crashes, {} unanswered ({:.2f}s)".format(
            chaos["runs"], chaos["machines_faulted"],
            chaos["machines_quarantined"], chaos["host_crashes"],
            chaos["unanswered_faults"], chaos["seconds"],
        )
    )
    recovery = report["recovery"]
    print(
        "recovery: {} records recovered after SIGKILL, {}/{} violations "
        "replayed as a prefix ({:.2f}s)".format(
            recovery["recovered_records"],
            recovery["recovered_violations"], recovery["full_violations"],
            recovery["seconds"],
        )
    )
    governor = report["governor"]
    kernels = governor["valid_kernels"]
    print(
        "governor: synthetic hot pair {} of {} calls checked; {} valid "
        "kernels, {} reporting, {} raising ({:.2f}s); workload {} pairs, "
        "detected {}".format(
            governor["synthetic"]["hot"]["checks"],
            governor["synthetic"]["hot"]["calls"],
            kernels["kernels"], len(kernels["reports"]),
            len(kernels["exceptions"]), kernels["seconds"],
            governor["workload"]["pairs"],
            ", ".join(governor["workload"]["violations_detected"]),
        )
    )
    print("report written to {}".format(args.out))
    if not all(report["gate"].values()):
        print("RESILIENCE GATE FAILED: {}".format(report["gate"]))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
