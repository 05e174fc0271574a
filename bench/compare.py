"""Compare two sets of benchmark runs, one row per (workload, metric).

Each side is a directory of ``run-*.json`` results (or result files).
For every row the tool prints each side's median and quartiles, then a
status, by rules meant for a small, noisy machine:

- ``better``: B wins at least nine tenths of the paired runs (ties count
  for neither side) and the medians differ by more than A's own spread,
  the distance between its quartiles;
- ``unresolved``: A's spread, as a share of its median, is wider than
  the metric's bound, unless every B run reads better than every A run
  (then ``unchanged``);
- ``worse``: B's median is worse than A's by more than the bound;
- ``unchanged``: otherwise.

Bounds and directions come from ``BENCHMARK.json``.  The verdict shares
``wrong_share`` and ``detect_rate`` are exact: their row is ``worse``
when B's worst run is worse than A's worst.  Per-layer metrics have no
bound; their rows are reported with status ``-``.  Runs pair by
seed when both sides ran the same seeds, else in file order.  The exit
code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List, Optional, Tuple

from bench.stats import quartiles

#: The verdict shares every report carries beside its metrics, with the
#: direction that is better.
EXACT = {"wrong_share": "lower", "detect_rate": "higher"}


def load_runs(path: str) -> List[dict]:
    files = (
        sorted(glob.glob(os.path.join(path, "run-*.json")))
        if os.path.isdir(path)
        else [path]
    )
    runs = []
    for name in files:
        with open(name) as f:
            runs.append(json.load(f))
    return runs


def _pairs(a: List[dict], b: List[dict]) -> List[Tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in b}
    if len(by_seed) == len(b) and all(r["seed"] in by_seed for r in a):
        return [(r, by_seed[r["seed"]]) for r in a]
    return list(zip(a, b))


def classify(a: List[float], b: List[float], pairs: List[Tuple[float, float]],
             better: str, bound: Optional[float]) -> str:
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    q1a, ma, q3a = quartiles(a)
    _, mb, _ = quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (pairs and wins >= 0.9 * len(pairs) and sign * (mb - ma) < 0
            and abs(mb - ma) > q3a - q1a):
        return "better"
    if (q3a - q1a) / ma > bound:
        every = all(sign * (y - x) < 0 for x in a for y in b)
        return "unchanged" if every else "unresolved"
    if sign * (mb - ma) / ma > bound:
        return "worse"
    return "unchanged"


def classify_exact(a: List[float], b: List[float], better: str) -> str:
    """Verdict shares admit no slack: B's worst run may not be worse than
    A's worst."""
    sign = 1.0 if better == "lower" else -1.0
    return "worse" if max(sign * y for y in b) > max(sign * x for x in a) else "unchanged"


def _value(report: dict, name: str) -> Optional[float]:
    if name in report["metrics"]:
        return report["metrics"][name]["value"]
    return report.get(name) if name in EXACT else None


def compare(a_runs: List[dict], b_runs: List[dict],
            spec: Dict[str, object]) -> List[Dict[str, object]]:
    declared = [(m, m["bound"]) for m in spec["end_to_end"]]
    declared += [
        ({"name": name, "unit": "share", "better": better}, "exact")
        for name, better in EXACT.items()
    ]
    declared += [(m, None) for m in spec["per_layer"]]
    rows = []
    workloads = sorted({r["workload"] for r in a_runs} & {r["workload"] for r in b_runs})
    for workload in workloads:
        for metric, bound in declared:
            name = metric["name"]
            side = {}
            for label, runs in (("a", a_runs), ("b", b_runs)):
                side[label] = [
                    r for r in runs
                    if r["workload"] == workload and _value(r, name) is not None
                ]
            if not side["a"] or not side["b"]:
                continue
            a = [_value(r, name) for r in side["a"]]
            b = [_value(r, name) for r in side["b"]]
            if bound == "exact":
                status = classify_exact(a, b, metric["better"])
            else:
                pairs = [
                    (_value(x, name), _value(y, name))
                    for x, y in _pairs(side["a"], side["b"])
                ]
                status = classify(a, b, pairs, metric["better"], bound)
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "a": quartiles(a),
                "b": quartiles(b),
                "runs": (len(a), len(b)),
                "bound": bound,
                "status": status,
            })
    return rows


def main(a_path: str, b_path: str, spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    rows = compare(load_runs(a_path), load_runs(b_path), spec)
    print("{:14s} {:34s} {:>30s} {:>30s} {:>7s} {:>6s}  {}".format(
        "workload", "metric", "A median [Q1, Q3]", "B median [Q1, Q3]",
        "change", "bound", "status"))
    for row in rows:
        (q1a, ma, q3a), (q1b, mb, q3b) = row["a"], row["b"]
        print("{:14s} {:34s} {:>30s} {:>30s} {:>+6.1%} {:>6s}  {}".format(
            row["workload"], row["metric"],
            "{:.4g} [{:.4g}, {:.4g}]".format(ma, q1a, q3a),
            "{:.4g} [{:.4g}, {:.4g}]".format(mb, q1b, q3b),
            (mb - ma) / ma if ma else 0.0,
            "-" if row["bound"] is None
            else row["bound"] if row["bound"] == "exact"
            else "{:.0%}".format(row["bound"]),
            row["status"],
        ))
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    print("rows: " + ", ".join(
        "{} {}".format(n, s) for s, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0
