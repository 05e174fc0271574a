"""Fleet fabric performance + correctness gate (``BENCH_fleet.json``).

Three acceptance criteria for ``repro.fleet``, measured on the shipped
fuzz regression corpus (``tests/data/fuzz_corpus/``, one minimized
trace per fault class), each file replayed ``REPEATS`` times inside its
job for CPU amplification:

- **scaling** (``speedup_ok``) — replaying the corpus with 4 workers
  must beat 1 worker by >= 2.5x on *critical-path CPU* accounting:
  total in-worker CPU seconds over the busiest single worker's CPU
  seconds, the same scheduler-independent convention
  ``bench_trace_replay.py`` gates (a wall speedup is physically
  unavailable on a single-CPU container at any software layer).  The
  full 1/2/4 scaling curve is reported for EXPERIMENTS.md E15.

- **determinism** (``stream_identical_ok``) — the merged violation
  stream at every worker count, one job per dispatch and in chunks of
  ``BATCH`` jobs, must be byte-identical to the stream pinned in the
  corpus manifest, whatever order the jobs finished in.

- **plan cache** (``plan_cache_ok``) — a cold fused-pipeline build
  (full synthesizer cross-product) against a fresh on-disk plan cache
  must be >= 3x slower than a warm one (second process ``exec``-ing
  the cached compiled plan), proving fleet workers and repeat CLI
  invocations skip synthesis.
"""

import os
import time

from benchmarks.conftest import write_bench_json

WORKER_COUNTS = [1, 2, 4]
REPEATS = 20
TRIALS = 2
SPEEDUP_MIN = 2.5
#: Jobs per dispatch chunk in the batched stream-identity runs.
BATCH = 4
PLAN_WARM_RATIO_MIN = 3.0

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(_ROOT, "tests", "data", "fuzz_corpus")


def _measure_workers(paths, workers):
    """Best-of-N fleet replay at one worker count."""
    from repro.fleet import fleet_replay, violation_stream

    best = None
    for _ in range(TRIALS):
        start = time.perf_counter()
        merged, report = fleet_replay(
            paths, workers=workers, repeats=REPEATS
        )
        wall = time.perf_counter() - start
        trial = {
            "workers": workers,
            "serial_cpu_seconds": report.serial_cpu_seconds,
            "critical_path_seconds": report.critical_path_seconds,
            "utilization": report.utilization,
            "wall_seconds": wall,
            "events": merged.event_count,
            "stream": violation_stream(report),
            "counts": report.counts,
        }
        if (
            best is None
            or trial["critical_path_seconds"] < best["critical_path_seconds"]
        ):
            best = trial
    return best


def _batched_streams(paths) -> dict:
    """The merged stream at each worker count, ``BATCH`` jobs a chunk."""
    from repro.fleet import fleet_replay, violation_stream

    streams = {}
    for workers in WORKER_COUNTS:
        _, report = fleet_replay(paths, workers=workers, batch=BATCH)
        streams[workers] = violation_stream(report)
    return streams


def _plan_cache_gate() -> dict:
    """Cold synthesis vs warm ``exec`` of the on-disk compiled plan."""
    import tempfile

    from repro.core.cache import WrapperCache
    from repro.core.plancache import PlanDiskCache
    from repro.jinn.machines import build_registry

    registry = build_registry()
    with tempfile.TemporaryDirectory() as tmp:
        cold_cache = WrapperCache(disk=PlanDiskCache(tmp))
        start = time.perf_counter()
        cold_cache.plans_for(registry)
        cold = time.perf_counter() - start
        cold_stats = cold_cache.stats()
        # A fresh in-memory cache over the same directory models the
        # next process (fleet worker, repeat CLI invocation).
        warm_cache = WrapperCache(disk=PlanDiskCache(tmp))
        start = time.perf_counter()
        warm_cache.plans_for(registry)
        warm = time.perf_counter() - start
        warm_stats = warm_cache.stats()
    ratio = cold / max(1e-9, warm)
    return {
        "cold_seconds": cold,
        "warm_seconds": warm,
        "speedup": ratio,
        "cold_disk_misses": cold_stats["disk_misses"],
        "cold_disk_writes": cold_stats["disk_writes"],
        "warm_disk_hits": warm_stats["disk_hits"],
        "ok": (
            ratio >= PLAN_WARM_RATIO_MIN
            and cold_stats["disk_writes"] == 1
            and warm_stats["disk_hits"] == 1
            and warm_stats["disk_errors"] == 0
        ),
    }


def run_fleet_quick(out_path: str) -> dict:
    from repro.fuzz.corpus import corpus_baseline

    paths, stream, events = corpus_baseline(CORPUS_DIR)
    report = {
        "corpus": os.path.relpath(CORPUS_DIR, _ROOT),
        "traces": len(paths),
        "repeats": REPEATS,
        "trials": TRIALS,
        "worker_counts": WORKER_COUNTS,
        "cpu_count": os.cpu_count(),
    }

    report["baseline_events"] = events

    curve = []
    streams = {}
    for workers in WORKER_COUNTS:
        trial = _measure_workers(paths, workers)
        streams[workers] = trial.pop("stream")
        curve.append(trial)
    serial_cpu = curve[0]["serial_cpu_seconds"]
    for trial in curve:
        trial["speedup"] = serial_cpu / trial["critical_path_seconds"]
    report["scaling"] = curve

    four = next(t for t in curve if t["workers"] == 4)
    batched = _batched_streams(paths)
    stream_identical = all(
        streams[workers] == stream and batched[workers] == stream
        for workers in WORKER_COUNTS
    )
    report["stream_identical"] = stream_identical
    report["batch"] = BATCH
    report["violations"] = len(stream)
    report["plan_cache"] = _plan_cache_gate()
    report["gate"] = {
        "speedup_ok": four["speedup"] >= SPEEDUP_MIN,
        "stream_identical_ok": stream_identical,
        "plan_cache_ok": report["plan_cache"]["ok"],
    }
    write_bench_json(out_path, report, thresholds={
        "four_worker_critical_path_speedup_min": SPEEDUP_MIN,
        "stream_identical": True,
        "plan_cache_warm_speedup_min": PLAN_WARM_RATIO_MIN,
    })
    return report


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Quick fleet fabric benchmark gate"
    )
    parser.add_argument(
        "--quick", action="store_true", help="run the fleet gate"
    )
    parser.add_argument(
        "--out",
        default=os.path.join(_ROOT, "BENCH_fleet.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if not args.quick:
        parser.error("this entry point only supports --quick")
    report = run_fleet_quick(args.out)
    print("corpus: {} traces x{} repeats, {} events".format(
        report["traces"], report["repeats"], report["baseline_events"]
    ))
    for trial in report["scaling"]:
        print(
            "  {} worker(s): critical path {:.3f}s, speedup {:.2f}x, "
            "utilization {:.0%}".format(
                trial["workers"], trial["critical_path_seconds"],
                trial["speedup"], trial["utilization"],
            )
        )
    print("stream: {} across {} worker counts, batch 1 and {}".format(
        "identical" if report["stream_identical"] else "DRIFT",
        len(report["worker_counts"]), report["batch"],
    ))
    plan = report["plan_cache"]
    print(
        "plan cache: cold {:.1f}ms -> warm {:.1f}ms ({:.1f}x)".format(
            plan["cold_seconds"] * 1e3, plan["warm_seconds"] * 1e3,
            plan["speedup"],
        )
    )
    print("report written to {}".format(args.out))
    if not all(report["gate"].values()):
        print("FLEET GATE FAILED: {}".format(report["gate"]))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
