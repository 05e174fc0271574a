"""The regression corpus: minimized failure slices as replayable traces.

``build_corpus`` runs every fault class through generate → inject →
shrink, re-records the minimized sequence, and persists one ``.trace``
file per fault plus a ``manifest.json`` describing each entry (its op
list, expected fingerprint, and shrink ratio).  ``check_corpus`` is the
regression side: it *replays the stored traces* — no generation, no
substrate execution — and verifies each one still re-fires its
manifest fingerprint, so a checker regression that silences a detector
fails the corpus even if the fuzzer's generators have since changed.

A small fixed-seed corpus is shipped at ``tests/data/fuzz_corpus/`` and
replayed by the tier-1 suite.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.fuzz.faults import FAULTS, faults_for
from repro.fuzz.shrink import failure_fingerprint, shrink_fault

MANIFEST_NAME = "manifest.json"


def build_corpus(
    out_dir: str,
    seed: int,
    *,
    substrate: str = "both",
    segments: Optional[int] = None,
) -> Dict[str, object]:
    """Build (or rebuild) the corpus under ``out_dir``; returns the manifest."""
    from repro.trace import TraceRecorder
    from repro.fuzz.ops import run_jni_ops, run_pyc_ops

    faults = list(FAULTS) if substrate == "both" else faults_for(substrate)
    os.makedirs(out_dir, exist_ok=True)
    entries: List[Dict[str, object]] = []
    for fault in faults:
        shrunk = shrink_fault(fault, seed, segments=segments)
        trace_name = fault.name + ".trace"
        recorder = TraceRecorder(
            os.path.join(out_dir, trace_name), workload="fuzz:" + fault.name
        )
        if fault.substrate == "pyc":
            final = run_pyc_ops(shrunk.sequence.ops, observer=recorder)
        else:
            final = run_jni_ops(shrunk.sequence.ops, observer=recorder)
        events = recorder.close()
        entries.append(
            {
                "name": fault.name,
                "substrate": fault.substrate,
                "machine": fault.machine,
                "trace": trace_name,
                "fingerprint": list(shrunk.fingerprint),
                "ops": [list(op) for op in shrunk.sequence.ops],
                "original_ops": shrunk.original_ops,
                "shrunk_ops": shrunk.shrunk_ops,
                "shrink_runs": shrunk.runs,
                "events": events,
                "violations": final.reports,
            }
        )
    manifest = {"seed": seed, "entries": entries}
    with open(os.path.join(out_dir, MANIFEST_NAME), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def load_manifest(corpus_dir: str) -> Dict[str, object]:
    with open(os.path.join(corpus_dir, MANIFEST_NAME)) as f:
        return json.load(f)


def corpus_baseline(corpus_dir: str) -> Tuple[List[str], List[str], int]:
    """The pinned replay answer for a corpus, in manifest order.

    Returns the trace paths, their concatenated violation stream and
    their event total, as recorded in the manifest.  Any replay of the
    corpus, serial or on the fleet, must reproduce the last two.
    """
    entries = load_manifest(corpus_dir)["entries"]
    paths = [os.path.join(corpus_dir, entry["trace"]) for entry in entries]
    stream = [report for entry in entries for report in entry["violations"]]
    return paths, stream, sum(entry["events"] for entry in entries)


def check_corpus(corpus_dir: str) -> List[str]:
    """Replay every stored trace; return failure strings (empty = pass).

    Each trace must replay cleanly and its first violation must carry
    the manifest's ``(machine, state)`` fingerprint.
    """
    from repro.trace import replay_path

    failures: List[str] = []
    manifest = load_manifest(corpus_dir)
    for entry in manifest["entries"]:
        path = os.path.join(corpus_dir, entry["trace"])
        if not os.path.exists(path):
            failures.append("{}: trace file missing".format(entry["name"]))
            continue
        result = replay_path(path)
        expected = tuple(entry["fingerprint"])
        actual = failure_fingerprint(result.violations)
        if actual != expected:
            failures.append(
                "{}: replay fingerprint {} != manifest {}".format(
                    entry["name"], actual, expected
                )
            )
        if entry["violations"] != result.recorded_reports:
            failures.append(
                "{}: recorded violation stream changed".format(entry["name"])
            )
    return failures
