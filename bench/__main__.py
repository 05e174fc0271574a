"""``python -m bench run|compare``: every workload at once; two run sets.

``run`` starts ``bench/run.py`` once per workload, each in its own fresh
child process and one at a time, then prints every metric by name with
its unit and sample count.  It exits 1 if any known-answer oracle
failed.  ``--trace`` makes the runs traced ones (spans and the
per-layer ledger); ``--smoke`` runs all four workloads in about a minute.

``compare A B`` reads two directories of results and judges every
(workload, metric) row against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from bench.run import RESULTS, ROOT, WORKLOAD_NAMES

SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN = os.path.join(ROOT, "bench", "run.py")
SMOKE_SECONDS = 4


def _run(args: argparse.Namespace) -> int:
    with open(SPEC) as f:
        spec = json.load(f)
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    status = 0
    reports = []
    for workload in WORKLOAD_NAMES:
        command = [
            sys.executable, RUN, "--workload", workload, "--seed",
            str(args.seed), "--seconds", str(seconds), "--trace",
            "1" if args.trace else "0", "--out", args.out,
        ]
        command += ["--smoke"] if args.smoke else []
        code = subprocess.run(command, cwd=ROOT).returncode
        status = status or code
        name = "run-{}-{}{}.json".format(
            workload, args.seed, "-trace" if args.trace else ""
        )
        path = os.path.join(args.out, name)
        if code in (0, 1) and os.path.exists(path):
            with open(path) as f:
                reports.append(json.load(f))
    print()
    print("{:14s} {:34s} {:>14s} {:7s} {:>8s}".format(
        "workload", "metric", "value", "unit", "samples"))
    for report in reports:
        for metric in spec[kind]:
            entry = report["metrics"][metric["name"]]
            print("{:14s} {:34s} {:>14.6g} {:7s} {:>8s}".format(
                report["workload"], metric["name"], entry["value"],
                metric["unit"], str(entry.get("samples") or "-"),
            ))
        for name, n in (("wrong_share", "attempted"), ("detect_rate", "faulty")):
            print("{:14s} {:34s} {:>14.6g} {:7s} {:>8d}".format(
                report["workload"], name, report[name], "share", report[n],
            ))
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every workload once")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--smoke", action="store_true")
    run.add_argument("--out", default=RESULTS)
    compare = sub.add_parser("compare", help="judge run set B against A")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args)
    from bench.compare import main as compare_main

    return compare_main(args.a, args.b, SPEC)


if __name__ == "__main__":
    sys.exit(main())
