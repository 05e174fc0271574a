"""Observability subsystem gate (``BENCH_obs.json``).

Three gates:

- ``telemetry_overhead_ok`` — the one timing gate: a fully observed
  run (telemetry tap fused into every entry) costs at most 1.10x the
  same workload with telemetry off.  The gated statistic is the
  *floor ratio* ``min(on) / min(off)`` over interleaved trials whose
  on/off order alternates each round.  Timer noise on a shared box is
  strictly additive (background load only ever makes a trial slower),
  so the per-side minimum estimates the noise-free floor — the same
  reasoning behind ``timeit``'s min-of-repeats — and alternating the
  order cancels the slow drift that penalizes whichever side runs
  second.  The median of paired ratios is reported alongside for
  context but not gated: on a box with minute-scale load phases it
  wanders far above the true ratio.
- ``snapshot_deterministic_ok`` — structural: two same-seed
  ``observed_run``\\ s on a :class:`~repro.core.clock.FakeClock`
  produce byte-identical canonical-JSON snapshots, modulo the
  ``wrapper_cache_*`` gauges (the compile cache is process-wide by
  design, so its hit counter grows across runs in one process).
- ``triage_dedup_ok`` — structural: N repeats of the same buggy
  crossing collapse to one triage cluster with count N, and the
  cluster ID is stable across ingestion orders.

One ungated section, ``attach``: the median cost of building a VM
with the default checker attached and shutting it down, telemetry on
against telemetry off, over interleaved trials.  The overhead gate
times only the kernel call, so this is where the tap's per-VM attach
cost shows: ``tap_ms`` (on minus off) is the tap's own cost, while
``ratio`` (on over off) also moves when the rest of the attach gets
cheaper.  It is not gated: on a shared 2-CPU host a millisecond
timing moves with the host's load more than with the code.

Parity (telemetry on changes no violation or trace byte) is a test,
not a bench — see ``tests/test_pipeline_parity.py``.
"""

import os

from benchmarks.conftest import write_bench_json
from repro.workloads.dacapo import run_workload

#: Kernel and size, matching the fused-pipeline gate.
QUICK_WORKLOAD = "luindex"
QUICK_ITERATIONS = 1000
QUICK_TRIALS = 9

#: Telemetry-on must cost no more than telemetry-off modulo timer noise
#: — the tap's mandatory per-crossing work is one counter increment and
#: one mask test; duration capture (clock reads, histogram, span) runs
#: on 1 in ``ObsHub.sample_period`` crossings per site, so the true
#: ratio sits within a few percent of 1.0.  Same 1.10 A/A noise bound
#: as the pipeline and trace-replay gates.
OVERHEAD_MARGIN = 1.10

#: Interleaved on/off VM attach trials (each one side's sample).
ATTACH_TRIALS = 41

#: Same-seed determinism and triage workload parameters.
DET_SEED = 2026
DET_REPEATS = 4
TRIAGE_REPEATS = 5


def _one_trial(telemetry_on: bool, iterations: int) -> float:
    import gc

    from repro.jinn.agent import JinnAgent
    from repro.obs import ObsHub

    hub = ObsHub() if telemetry_on else None
    agent = JinnAgent(mode="generated", telemetry=hub)
    # Start every trial from a collected heap so a generational pass
    # triggered by a previous trial's garbage never lands mid-timing.
    gc.collect()
    result = run_workload(QUICK_WORKLOAD, iterations=iterations, agents=[agent])
    return result.elapsed


def _overhead_section() -> dict:
    """Interleaved trials, alternating order; gate on the floor ratio."""
    import gc

    _one_trial(True, QUICK_ITERATIONS // 5)  # warm-up
    # The warmed caches (compiled plans, specs, workload tables) are
    # immortal for the bench's purposes; freezing them keeps every
    # later collection small and equally cheap for both sides.
    gc.freeze()
    best = {"on": None, "off": None}
    ratios = []
    for round_index in range(QUICK_TRIALS):
        order = ("off", "on") if round_index % 2 == 0 else ("on", "off")
        round_times = {}
        for label in order:
            elapsed = _one_trial(label == "on", QUICK_ITERATIONS)
            round_times[label] = elapsed
            if best[label] is None or elapsed < best[label]:
                best[label] = elapsed
        ratios.append(round_times["on"] / round_times["off"])
    ratios.sort()
    return {
        "workload": QUICK_WORKLOAD,
        "iterations": QUICK_ITERATIONS,
        "trials": QUICK_TRIALS,
        "on_seconds": best["on"],
        "off_seconds": best["off"],
        "floor_ratio": best["on"] / best["off"],
        "median_paired_ratio": ratios[len(ratios) // 2],
        "paired_ratios": [round(r, 4) for r in ratios],
    }


def _one_attach(telemetry_on: bool) -> float:
    """Seconds to build a checked VM, attach included, and shut it down."""
    import time

    from repro.jinn.agent import JinnAgent
    from repro.jvm import JavaVM
    from repro.obs import ObsHub

    hub = ObsHub() if telemetry_on else None
    start = time.perf_counter()
    JavaVM(agents=[JinnAgent(telemetry=hub)]).shutdown()
    return time.perf_counter() - start


def _attach_section() -> dict:
    """Median attach + shutdown, telemetry on and off, alternating order."""
    import statistics

    _one_attach(True)  # warm-up: plans, dispatch index, site keys
    times = {"on": [], "off": []}
    for round_index in range(ATTACH_TRIALS):
        order = ("off", "on") if round_index % 2 == 0 else ("on", "off")
        for label in order:
            times[label].append(_one_attach(label == "on"))
    on_ms = statistics.median(times["on"]) * 1e3
    off_ms = statistics.median(times["off"]) * 1e3
    return {
        "trials": ATTACH_TRIALS,
        "on_ms": round(on_ms, 4),
        "off_ms": round(off_ms, 4),
        "tap_ms": round(on_ms - off_ms, 4),
        "ratio": round(on_ms / off_ms, 4),
    }


def _strip_process_globals(snapshot: dict) -> dict:
    """Drop the gauges that are process-wide by design (cache stats)."""
    import copy

    clean = copy.deepcopy(snapshot)
    gauges = clean["metrics"]["gauges"]
    for flat in [k for k in gauges if k.startswith("wrapper_cache_")]:
        del gauges[flat]
    return clean


def _determinism_section() -> dict:
    from repro.core.clock import FakeClock
    from repro.obs import canonical_json, observed_run

    texts = []
    for _ in range(2):
        report = observed_run(
            DET_SEED, substrate="pyc", repeats=DET_REPEATS, clock=FakeClock()
        )
        texts.append(
            canonical_json(_strip_process_globals(report["snapshot"]))
        )
    return {
        "seed": DET_SEED,
        "repeats": DET_REPEATS,
        "snapshot_bytes": len(texts[0]),
        "identical": texts[0] == texts[1],
    }


def _triage_section() -> dict:
    """One buggy crossing repeated N times -> one cluster, count N."""
    from repro.jinn.agent import JinnAgent
    from repro.jvm import HOTSPOT, JavaException, JavaVM
    from repro.obs import ObsHub, ViolationTriage
    from repro.workloads import blocks

    hub = ObsHub()
    agent = JinnAgent(telemetry=hub)
    vm = JavaVM(vendor=HOTSPOT, agents=[agent])
    vm.define_class("ObsBench")
    vm.add_method(
        "ObsBench", "bug", "()V", is_static=True, is_native=True
    )
    vm.register_native("ObsBench", "bug", "()V", blocks.delete_local_ref_twice)
    for _ in range(TRIAGE_REPEATS):
        try:
            vm.call_static("ObsBench", "bug", "()V")
        except JavaException:
            pass
    vm.shutdown()
    clusters = hub.triage.top(10)
    # Cluster-ID stability: re-ingest the same violations in reverse
    # order into a fresh triage; the cluster set must be identical.
    reversed_triage = ViolationTriage()
    for line in reversed([v.report() for v in agent.rt.violations]):
        reversed_triage.ingest_report_line(line)
    return {
        "repeats": TRIAGE_REPEATS,
        "violations": len(agent.rt.violations),
        "clusters": len(clusters),
        "top_count": clusters[0].count if clusters else 0,
        "order_stable": (
            sorted(c.id for c in clusters)
            == sorted(c["id"] for c in reversed_triage.snapshot()["clusters"])
        ),
    }


def test_observed_workload(benchmark):
    """pytest surface: one telemetry-on kernel, timed."""
    from repro.jinn.agent import JinnAgent
    from repro.obs import ObsHub

    def run():
        agent = JinnAgent(mode="generated", telemetry=ObsHub())
        return run_workload(QUICK_WORKLOAD, iterations=50, agents=[agent])

    benchmark(run)


def run_obs_quick(out_path: str) -> dict:
    report = {
        "overhead": _overhead_section(),
        "attach": _attach_section(),
        "determinism": _determinism_section(),
        "triage": _triage_section(),
    }
    triage = report["triage"]
    report["gate"] = {
        "telemetry_overhead_ok": (
            report["overhead"]["floor_ratio"] <= OVERHEAD_MARGIN
        ),
        "snapshot_deterministic_ok": report["determinism"]["identical"],
        "triage_dedup_ok": (
            triage["clusters"] == 1
            and triage["top_count"] == triage["violations"]
            and triage["order_stable"]
        ),
    }
    write_bench_json(out_path, report, thresholds={
        "telemetry_floor_ratio_max": OVERHEAD_MARGIN,
        "triage_clusters_expected": 1,
    })
    return report


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Quick observability benchmark gate"
    )
    parser.add_argument(
        "--quick", action="store_true", help="run the obs gate"
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_obs.json",
        ),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if not args.quick:
        parser.error("this entry point only supports --quick "
                     "(use pytest for the timed fixture)")
    report = run_obs_quick(args.out)
    overhead = report["overhead"]
    print(
        "telemetry: off {:.4f}s  on {:.4f}s  floor ratio {:.3f} "
        "(gate <= {:.2f}; median paired {:.3f})".format(
            overhead["off_seconds"], overhead["on_seconds"],
            overhead["floor_ratio"], OVERHEAD_MARGIN,
            overhead["median_paired_ratio"],
        )
    )
    attach = report["attach"]
    print(
        "attach: off {:.3f}ms  on {:.3f}ms  tap {:.3f}ms  ratio {:.2f} "
        "(median of {}, not gated)".format(
            attach["off_ms"], attach["on_ms"], attach["tap_ms"],
            attach["ratio"], attach["trials"],
        )
    )
    print(
        "determinism: same-seed snapshots identical={} ({} bytes)".format(
            report["determinism"]["identical"],
            report["determinism"]["snapshot_bytes"],
        )
    )
    print(
        "triage: {} violation(s) -> {} cluster(s), top count {}, "
        "order stable={}".format(
            report["triage"]["violations"], report["triage"]["clusters"],
            report["triage"]["top_count"], report["triage"]["order_stable"],
        )
    )
    print("report written to {}".format(args.out))
    if not all(report["gate"].values()):
        print("OBS GATE FAILED: {}".format(report["gate"]))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
