"""Corpus builder: record the benchmark suites into a trace directory.

Records every :mod:`repro.workloads.dacapo` benchmark, the JNI
microbenchmarks, and the Python/C microbenchmarks into ``traces/``
(gitignored) and writes a ``manifest.json`` describing each trace: its
file, substrate, event count, and the violations the live checker
reported while recording — the ground truth replays are checked
against.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.trace.recorder import TraceRecorder

MANIFEST_NAME = "manifest.json"


def _entry(kind, name, path, rec, live_reports) -> Dict[str, object]:
    return {
        "kind": kind,
        "name": name,
        "trace": os.path.basename(path),
        "substrate": "pyc" if kind == "pyc-micro" else "jni",
        "events": rec.event_count,
        "live_violations": list(live_reports),
    }


def record_dacapo(
    name: str,
    out_dir: str,
    *,
    scale: int = 1000,
    iterations: Optional[int] = None,
) -> Dict[str, object]:
    """Record one DaCapo/SPECjvm98 workload under a checking Jinn run."""
    from repro.jinn.agent import JinnAgent
    from repro.workloads.dacapo import run_workload

    path = os.path.join(out_dir, "dacapo-{}.trace".format(name))
    rec = TraceRecorder(path, workload="dacapo/" + name)
    agent = JinnAgent(observer=rec)
    run_workload(
        name, config="jinn", agents=[agent], scale=scale, iterations=iterations
    )
    rec.close()
    live = [v.report() for v in agent.rt.violations]
    return _entry("dacapo", name, path, rec, live)


def record_micro(name: str, out_dir: str) -> Dict[str, object]:
    """Record one JNI microbenchmark under a checking Jinn run."""
    from repro.workloads.microbench import scenario_by_name
    from repro.workloads.outcomes import run_scenario

    scenario = scenario_by_name(name)
    path = os.path.join(out_dir, "micro-{}.trace".format(name))
    rec = TraceRecorder(path, workload="micro/" + name)
    result = run_scenario(scenario.run, checker="jinn", observer=rec)
    rec.close()
    return _entry("micro", name, path, rec, result.violations)


def record_pyc_micro(name: str, out_dir: str) -> Dict[str, object]:
    """Record one Python/C microbenchmark under the synthesized checker."""
    from repro.workloads.pyc_micro import PYC_MICROBENCHMARKS, run_pyc_scenario

    scenario = next(s for s in PYC_MICROBENCHMARKS if s.name == name)
    path = os.path.join(out_dir, "pyc-{}.trace".format(name))
    rec = TraceRecorder(path, workload="pyc/" + name)
    record = run_pyc_scenario(scenario, observer=rec)
    rec.close()
    return _entry("pyc-micro", name, path, rec, record.get("violations", ()))


def build_corpus(
    out_dir: str = "traces",
    *,
    benchmarks: Optional[List[str]] = None,
    include_micros: bool = True,
    include_pyc: bool = True,
    scale: int = 1000,
    iterations: Optional[int] = None,
) -> Dict[str, object]:
    """Record the full corpus; returns (and writes) the manifest."""
    from repro.workloads.dacapo import BENCHMARK_NAMES
    from repro.workloads.microbench import EXTRA_SCENARIOS, MICROBENCHMARKS
    from repro.workloads.pyc_micro import PYC_MICROBENCHMARKS

    os.makedirs(out_dir, exist_ok=True)
    entries: List[Dict[str, object]] = []
    for name in benchmarks if benchmarks is not None else BENCHMARK_NAMES:
        entries.append(
            record_dacapo(name, out_dir, scale=scale, iterations=iterations)
        )
    if include_micros:
        for scenario in MICROBENCHMARKS + EXTRA_SCENARIOS:
            entries.append(record_micro(scenario.name, out_dir))
    if include_pyc:
        for scenario in PYC_MICROBENCHMARKS:
            entries.append(record_pyc_micro(scenario.name, out_dir))
    manifest = {
        "corpus_version": 1,
        "mode": "generated",
        "scale": scale,
        "traces": entries,
        "total_events": sum(entry["events"] for entry in entries),
    }
    with open(os.path.join(out_dir, MANIFEST_NAME), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest

