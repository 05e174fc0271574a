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
- **governor** — on a deterministic fake clock, a hot expensive pair
  degrades to sampled checking while a cold pair keeps period 1, with
  exact sampled-in accounting; on a real governed workload, cold pairs
  stay fully checked and the planted fault is still detected.  The
  measured checking share is reported; the control law's timing is
  host-dependent, so the gate checks the structural invariants, not
  the share.
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
    gov._clock = rt.clock  # before the build: entries pre-bind it

    def raw(env):
        rt.now += 1
        return "ok"

    table = {name: FunctionMeta(name, "test", (), "void") for name in names}
    build = Synthesizer(
        SpecRegistry([CostSpec()]), function_table=table
    ).build_pipeline(govern=True)
    entries, _ = build(rt, {name: raw for name in names}, None, gov)
    return entries, rt


def _governor_section() -> dict:
    from repro.fuzz.faults import fault_by_name
    from repro.fuzz.engine import task_rng
    from repro.fuzz.gen import generate_sequence
    from repro.fuzz.ops import run_pyc_ops
    from repro.resilience import GovernorPolicy, OverheadGovernor

    policy = GovernorPolicy(
        budget=0.3, window=32, sample_period=4, max_period=16, hot_min=16
    )
    # Part 1 — deterministic control-law check on a fake clock, through
    # real governed fused entries: one hot pair whose checking is 1000x
    # its raw cost degrades to sampling, one cold pair stays at full
    # checking, and the sampled-in accounting is exact (every
    # non-sampled-out call ran the generated check).
    gov = OverheadGovernor(policy)
    entries, rt = _governed_entries(gov, ("hot", "cold"))
    for i in range(400):
        entries["hot"](None)
        if i % 100 == 0:  # 4 calls total: far below hot_min
            entries["cold"](None)
    hot_state = gov.pairs["hot"]
    cold_state = gov.pairs["cold"]
    synthetic = {
        "hot_period": hot_state.period,
        "hot_sampled_out": hot_state.total_sampled_out,
        "cold_period": cold_state.period,
        "checked_calls": rt.checks["hot"],
        "total_calls": hot_state.total_calls,
    }
    # Part 2 — a real governed workload: a faulty sequence runs under a
    # fresh governor; its cold pairs must stay fully checked, and the
    # planted over_decref must still be detected (detection 1.0 on
    # sampled-in transitions).
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
    cold_all_full = all(
        stats["period"] == 1 and stats["sampled_out"] == 0
        for stats in workload_report["pairs"].values()
        if stats["calls"] < policy.hot_min
    )
    gate = {
        "hot_pair_degraded": hot_state.period > 1
        and hot_state.total_sampled_out > 0,
        "cold_pair_fully_checked": cold_state.period == 1
        and cold_state.total_sampled_out == 0,
        "sampled_in_accounting_exact": rt.checks["hot"]
        == hot_state.total_calls - hot_state.total_sampled_out,
        "workload_cold_pairs_fully_checked": cold_all_full,
        "workload_detection_intact": "owned_ref" in detected,
    }
    return {
        "seed": GOVERNOR_SEED,
        "seconds": seconds,
        "policy": {
            "budget": policy.budget,
            "window": policy.window,
            "sample_period": policy.sample_period,
            "max_period": policy.max_period,
            "hot_min": policy.hot_min,
        },
        "synthetic": synthetic,
        "workload": {
            "share": workload_report["share"],
            "rebalances": workload_report["rebalances"],
            "degraded": workload_report["degraded"],
            "pairs": len(workload_report["pairs"]),
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
        "cold_pair_sampled_out_max": 0,
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
    print(
        "governor: synthetic hot pair period {} ({} of {} calls sampled "
        "out), workload share {:.1%} over {} pairs, detection intact "
        "({:.2f}s)".format(
            governor["synthetic"]["hot_period"],
            governor["synthetic"]["hot_sampled_out"],
            governor["synthetic"]["total_calls"],
            governor["workload"]["share"], governor["workload"]["pairs"],
            governor["seconds"],
        )
    )
    print("report written to {}".format(args.out))
    if not all(report["gate"].values()):
        print("RESILIENCE GATE FAILED: {}".format(report["gate"]))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
