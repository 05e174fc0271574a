"""Fuzz subsystem gate (``BENCH_fuzz.json``).

The gated properties are structural — timing-independent — per the
repo's bench convention (gate what must hold on any machine, report the
absolute rates alongside):

- **detection** (``detection_ok``) — every registered fault class is
  detected by its tagged machine in every fuzz round (detection rate
  1.0 across the catalog).  This is the synthesized-detector
  counterpart of Table 1's full-coverage column: the fault injectors
  are the pitfalls, the fuzzer supplies the programs.
- **no divergence** (``no_divergence_ok``) — live detection and
  trace-replay re-detection agree on every sequence, valid or faulted.
- **no false positives** (``no_false_positive_ok``) — valid generated
  sequences (graph walks with balanced cleanup) produce zero
  violations.
- **reproducibility** (``reproducible_ok``) — two fuzz runs at the same
  seed yield byte-identical canonical reports.
- **shrinking** (``shrink_fixpoint_ok``, ``shrink_fingerprint_ok``) —
  minimized slices re-fire the original (machine, state) fingerprint,
  re-shrinking them is a no-op, and the shrunk size never exceeds the
  original (the mean shrink ratio is reported).

Reported, not gated: sequences/second and replayed events/second for
the fuzz loop, per-fault shrink sizes, and total shrink executions —
absolute throughput depends on the host.  The loop runs
``LOOP_REPEATS`` times; the rates are the median loop's, with the
slowest and fastest loop's sequence rate beside them, since one cold
0.4–0.6 s loop read anywhere from 85 to 118 seq/s on one commit.
"""

import json
import os
import statistics
import time

from benchmarks.conftest import write_bench_json

QUICK_SEED = 2026
QUICK_ROUNDS = 2
LOOP_REPEATS = 5


def run_fuzz_quick(out_path: str) -> dict:
    from repro.fleet import fleet_fuzz
    from repro.fuzz import FAULTS, fuzz_gate, shrink, shrink_fault

    report = {"seed": QUICK_SEED, "rounds": QUICK_ROUNDS}

    # -- the fuzz loop in process, timed LOOP_REPEATS times (throughput;
    # the first two runs' reports give reproducibility) ----------------
    runs, seconds = [], []
    for _ in range(LOOP_REPEATS):
        start = time.perf_counter()
        runs.append(fleet_fuzz(QUICK_SEED, rounds=QUICK_ROUNDS, workers=0)[0])
        seconds.append(time.perf_counter() - start)
    first, second = runs[0], runs[1]
    reproducible = json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )
    gate_failures = fuzz_gate(first)

    loop_seconds = statistics.median(seconds)
    sequences = first["totals"]["runs"]
    report["loop"] = {
        "seconds": loop_seconds,
        "timed_loops": LOOP_REPEATS,
        "sequences": sequences,
        "sequences_per_second": sequences / loop_seconds,
        "sequences_per_second_min": sequences / max(seconds),
        "sequences_per_second_max": sequences / min(seconds),
        "events": first["totals"]["events"],
        "events_per_second": first["totals"]["events"] / loop_seconds,
        "valid": first["valid"],
        "gate_failures": gate_failures,
    }
    report["detection"] = {
        name: {
            "machine": stats["machine"],
            "detection_rate": stats["detection_rate"],
            "divergences": stats["divergences"],
        }
        for name, stats in first["faults"].items()
    }

    # -- shrinking across the whole catalog ----------------------------
    shrink_stats = {}
    start = time.perf_counter()
    fixpoint_ok = True
    fingerprint_ok = True
    for fault in FAULTS:
        result = shrink_fault(fault, QUICK_SEED)
        again = shrink(result.sequence)
        if again.sequence.ops != result.sequence.ops:
            fixpoint_ok = False
        if result.fingerprint[0] != fault.machine:
            fingerprint_ok = False
        shrink_stats[fault.name] = {
            "original_ops": result.original_ops,
            "shrunk_ops": result.shrunk_ops,
            "ratio": result.shrunk_ops / result.original_ops,
            "runs": result.runs,
        }
    shrink_seconds = time.perf_counter() - start
    ratios = [stats["ratio"] for stats in shrink_stats.values()]
    report["shrink"] = {
        "seconds": shrink_seconds,
        "faults": shrink_stats,
        "mean_ratio": sum(ratios) / len(ratios),
        "total_runs": sum(s["runs"] for s in shrink_stats.values()),
    }

    report["gate"] = {
        "detection_ok": all(
            stats["detection_rate"] == 1.0
            for stats in report["detection"].values()
        ),
        "no_divergence_ok": (
            first["valid"]["divergences"] == 0
            and all(
                stats["divergences"] == 0
                for stats in report["detection"].values()
            )
        ),
        "no_false_positive_ok": first["valid"]["violations"] == 0,
        "reproducible_ok": reproducible,
        "shrink_fixpoint_ok": fixpoint_ok,
        "shrink_fingerprint_ok": fingerprint_ok,
    }
    write_bench_json(out_path, report, thresholds={
        "detection_rate_min": 1.0,
        "divergences_max": 0,
        "valid_sequence_violations_max": 0,
    })
    return report


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Quick fuzz benchmark gate")
    parser.add_argument(
        "--quick", action="store_true", help="run the fuzz gate"
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_fuzz.json",
        ),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if not args.quick:
        parser.error("this entry point only supports --quick")
    report = run_fuzz_quick(args.out)
    loop = report["loop"]
    detected = sum(
        1
        for stats in report["detection"].values()
        if stats["detection_rate"] == 1.0
    )
    print(
        "fuzz loop: {} sequences in {:.2f}s, median of {} loops ({:.0f} "
        "seq/s [{:.0f}, {:.0f}], {:.0f} ev/s)".format(
            loop["sequences"], loop["seconds"], loop["timed_loops"],
            loop["sequences_per_second"], loop["sequences_per_second_min"],
            loop["sequences_per_second_max"], loop["events_per_second"],
        )
    )
    print(
        "detection: {}/{} fault classes at rate 1.0; valid sequences: "
        "{} violations, {} divergences".format(
            detected, len(report["detection"]),
            loop["valid"]["violations"], loop["valid"]["divergences"],
        )
    )
    print(
        "shrink: mean ratio {:.2f} over {} faults ({} runs, {:.2f}s)".format(
            report["shrink"]["mean_ratio"], len(report["shrink"]["faults"]),
            report["shrink"]["total_runs"], report["shrink"]["seconds"],
        )
    )
    print("report written to {}".format(args.out))
    if not all(report["gate"].values()):
        print("FUZZ GATE FAILED: {}".format(report["gate"]))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
