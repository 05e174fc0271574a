"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload table3 --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that records spans and measures the per-layer ledger.  The
metric names and units are the ones ``BENCHMARK.json`` declares.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 when a known-answer oracle failed and 2 when the checkout has no
``src/repro`` to measure.  Details (per-program ratios, the Table 3
rows, sample counts) go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "bench", "results")
PROBE = os.path.join(ROOT, "bench", "probe.py")

WORKLOAD_NAMES = ("table3", "pyc-ext", "bugs", "record-replay")

#: Set-up samples per run (each a fresh interpreter), normal and smoke.
SETUP_SAMPLES = 21
SMOKE_SETUP_SAMPLES = 3
#: A traced run splits its time: untraced loop, traced loop, ledger.
TRACE_LOOP_SHARE = 0.25

LOAD_SHAPE = (
    "closed loop, one client: programs run back to back in one thread of "
    "one process; each checked run is paired with a production twin on "
    "the same inputs and the pair order alternates between rounds; "
    "gc.collect() before every run, gc.freeze() after warm-up"
)

#: The paper's Table 3 geometric means (interposing, checking).
PAPER_GEOMEANS = {"interpose_x": 1.10, "overhead_x": 1.14}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer set-up samples, one round minimum, one ledger repetition",
    )
    parser.add_argument(
        "--out", default=RESULTS, help="directory for the results JSON"
    )
    parser.add_argument(
        "--expect", action="append", default=[], type=_expectation,
        metavar="PROGRAM=MACHINE",
        help="replace one program's declared answer (the oracle self-test)",
    )
    return parser.parse_args(argv)


def _expectation(text: str):
    program, sep, machine = text.partition("=")
    if not (program and sep and machine):
        raise argparse.ArgumentTypeError("expected PROGRAM=MACHINE")
    return program, machine


# -- set-up: prefill the plan cache, then time warm starts ---------------------


def _child_env(plan_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    env["REPRO_PLAN_CACHE"] = plan_dir
    return env


class SetupProbe:
    """Warm starts of one workload, each timed in a fresh interpreter.

    Creating the probe fills the plan cache in a child (see
    ``bench/probe.py`` for why not in this process); each call then
    times one warm start and keeps its ``import_s`` and ``first_call_s``.
    """

    def __init__(self, workload: str, plan_dir: str):
        self.workload = workload
        self.env = _child_env(plan_dir)
        self.samples: List[Dict[str, float]] = []
        subprocess.run(
            [sys.executable, PROBE, "prefill", workload], env=self.env,
            cwd=ROOT, check=True, timeout=600,
        )

    def __call__(self) -> None:
        done = subprocess.run(
            [sys.executable, PROBE, "setup", self.workload], env=self.env,
            cwd=ROOT, check=True, timeout=120, capture_output=True, text=True,
        )
        self.samples.append(json.loads(done.stdout.strip().splitlines()[-1]))

    def median(self, part: str) -> float:
        return statistics.median(s[part] for s in self.samples)

    def setup_s(self) -> float:
        return statistics.median(
            s["import_s"] + s["first_call_s"] for s in self.samples
        )


# -- the run -----------------------------------------------------------------


def _warm_up(workload, work_dir: str) -> None:
    """Load every plan and take every code path once, untimed."""
    from bench import programs

    for substrate in workload.substrates:
        program = programs.tiny_program(substrate)
        for config in programs.PAIRED:
            programs.run_config(
                program, config, os.path.join(work_dir, "warm.trace")
            )
        programs.run_replay(os.path.join(work_dir, "warm.trace"))


def _table3_rows(loop) -> Dict[str, object]:
    from bench.stats import geomean
    from repro.workloads.dacapo import PAPER_OVERHEADS

    interpose = loop.program_medians("interpose")
    checked = loop.program_medians("jinn")
    rows = [
        {
            "kernel": name,
            "interpose_x": interpose[name],
            "overhead_x": checked[name],
            "paper_interpose_x": PAPER_OVERHEADS[name][1],
            "paper_overhead_x": PAPER_OVERHEADS[name][2],
        }
        for name in sorted(checked)
        if name in PAPER_OVERHEADS and name in interpose
    ]
    if not rows:
        return {}
    return {
        "rows": rows,
        "geomean": {
            "interpose_x": geomean([r["interpose_x"] for r in rows]),
            "overhead_x": geomean([r["overhead_x"] for r in rows]),
        },
        "paper_geomean": PAPER_GEOMEANS,
        "note": "reference values from the paper, not metrics",
    }


def run(args: argparse.Namespace, work_dir: str) -> Dict[str, object]:
    plan_dir = os.path.join(work_dir, "plans")
    os.environ["REPRO_PLAN_CACHE"] = plan_dir
    probe = SetupProbe(args.workload, plan_dir)

    from bench import ledger as ledger_module
    from bench.measure import Loop
    from bench.oracle import Verdicts, machine_names
    from bench.programs import WORKLOADS
    from bench.spans import Tracer

    workload = WORKLOADS[args.workload]
    verdicts = Verdicts(dict(args.expect))
    min_rounds = 1 if args.smoke else 2
    setup_samples = SMOKE_SETUP_SAMPLES if args.smoke else SETUP_SAMPLES
    _warm_up(workload, work_dir)
    gc.freeze()

    metrics: Dict[str, Dict[str, object]] = {}
    extra: Dict[str, object] = {}
    loop = Loop(workload, args.seed, work_dir, verdicts)
    if not args.trace:
        loop.run(args.seconds, min_rounds, side=probe, side_calls=setup_samples)
        metrics.update(loop.e2e())
        metrics["setup_s"] = {
            "value": probe.setup_s(), "unit": "s", "samples": setup_samples
        }
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
            "samples": 1,
        }
        extra["contained_faults"] = loop.faults
    else:
        start = time.perf_counter()
        loop_seconds = args.seconds * TRACE_LOOP_SHARE
        loop.run(loop_seconds, min_rounds, side=probe, side_calls=setup_samples)
        tracer = Tracer()
        traced = Loop(workload, args.seed, work_dir, verdicts, tracer)
        traced.run(loop_seconds, min_rounds, first_round=loop.rounds)
        ledger = ledger_module.measure(
            args.seed,
            args.seconds - (time.perf_counter() - start),
            work_dir,
            verdicts,
            tracer,
            min_reps=1 if args.smoke else 2,
        )
        layer = dict(ledger.metrics)
        layer["setup.import_ms"] = probe.median("import_s") * 1e3
        layer["setup.first_call_ms"] = probe.median("first_call_s") * 1e3
        layer["bench.trace_overhead"] = traced.ratio("jinn") / loop.ratio("jinn")
        layer["trace.bytes_per_ev"] = loop.trace_bytes / loop.trace_events
        for substrate in ("jni", "pyc"):
            for name in sorted(machine_names(substrate)):
                layer["machine.{}.detections".format(name)] = (
                    verdicts.detections.get(name, 0)
                )
        metrics = {
            name: {"value": value, "samples": None}
            for name, value in layer.items()
        }
        extra["ledger_repetitions"] = ledger.repetitions
        extra["traced_rounds"] = traced.rounds
        extra["contained_faults"] = loop.faults + traced.faults
        spans_path = os.path.join(
            args.out, "trace-{}-{}.json".format(args.workload, args.seed)
        )
        with open(spans_path, "w") as f:
            json.dump(tracer.to_json(), f)
        extra["spans"] = os.path.relpath(spans_path, ROOT)

    attempted = verdicts.attempted
    failed = verdicts.wrong
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "stamp": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "seed": args.seed,
            "run_seconds": args.seconds,
            "load_shape": LOAD_SHAPE,
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "faulty": verdicts.faulty,
        "detect_rate": verdicts.detect_rate(),
        "wrong_share": verdicts.wrong_share(),
        "rounds": loop.rounds,
        "metrics": metrics,
        "problems": verdicts.problems,
        "programs": {
            config: loop.program_medians(config) for config in loop.ratios
        },
        "table3": _table3_rows(loop),
    }
    report.update(extra)
    return report


def _declared(kind: str) -> List[Dict[str, object]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[kind]


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "bench: {} has no src/repro to measure; run from the root of "
            "a checkout".format(ROOT),
            file=sys.stderr,
        )
        return 2
    # Run as a script, sys.path[0] is bench/ itself: import the package
    # from the checkout root instead, and repro from src/.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[0:0] = [ROOT, SRC]
    os.makedirs(args.out, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    try:
        report = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    declared = _declared("per_layer" if args.trace else "end_to_end")
    metrics = report["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError("metrics not measured: {}".format(missing))
    print("bench: workload={} seed={} seconds={} trace={} rounds={} "
          "cpu_count={} python={}".format(
              args.workload, args.seed, args.seconds, args.trace,
              report["rounds"], os.cpu_count(), platform.python_version()))
    for m in declared:
        entry = metrics[m["name"]]
        entry["unit"] = m["unit"]
        samples = entry.get("samples")
        print("  {:34s} {:>14.6g} {:6s}{}".format(
            m["name"], entry["value"], m["unit"],
            "  (n={})".format(samples) if samples else "",
        ))
    # The verdict shares are exact, so they are checked through
    # ``correct`` rather than declared as bounded metrics.
    for name, n in (("wrong_share", "attempted"), ("detect_rate", "faulty")):
        print("  {:34s} {:>14.6g} {:6s}  (n={})".format(
            name, report[name], "share", report[n]))
    for problem in report["problems"][:20]:
        print("  WRONG " + problem)
    name = "run-{}-{}{}.json".format(
        args.workload, args.seed, "-trace" if args.trace else ""
    )
    with open(os.path.join(args.out, name), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {
                "value": metrics[m["name"]]["value"], "unit": m["unit"]
            }
            for m in declared
        },
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
