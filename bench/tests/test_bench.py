"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``.

They run ``bench/run.py`` in smoke mode as a subprocess, the way the
benchmark is used, so the suite takes about a minute.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")
sys.path[0:0] = [ROOT, os.path.join(ROOT, "src")]

from bench.spans import SPAN_NAMES  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

#: Per-layer metrics that are counts: the same seed must repeat them.
COUNTS = (
    "trace.bytes_per_ev",
    "synth.source_kb.jni",
    "synth.source_kb.pyc",
) + tuple(
    "machine.{}.detections".format(name)
    for name in ("local_ref", "pinned_resource", "owned_ref", "gil_state")
)


def _run(tmp_path, workload, seed, seconds, trace, *extra):
    """One smoke run; returns the process, its last line and its report."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--smoke",
         "--out", str(tmp_path), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    name = "run-{}-{}{}.json".format(workload, seed, "-trace" if trace else "")
    with open(tmp_path / name) as f:
        report = json.load(f)
    return done, json.loads(done.stdout.strip().splitlines()[-1]), report


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Two traced runs of ``bugs`` with the same seed."""
    return [
        _run(tmp_path_factory.mktemp("traced"), "bugs", 5, 3, 1)
        for _ in range(2)
    ]


def _names(kind):
    return [m["name"] for m in SPEC[kind]]


def test_smoke_prints_every_end_to_end_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    table = [line.split() for line in done.stdout.splitlines()]
    for workload in ("table3", "pyc-ext", "bugs", "record-replay"):
        with open(tmp_path / "run-{}-1.json".format(workload)) as f:
            report = json.load(f)
        assert report["correct"] and report["failed"] == 0
        printed = [row[1] for row in table if row[:1] == [workload]]
        assert printed == _names("end_to_end") + ["wrong_share", "detect_rate"]
        for name in _names("end_to_end"):
            assert report["metrics"][name]["value"] > 0
        assert report["wrong_share"] == 0.0
    with open(tmp_path / "run-bugs-1.json") as f:
        assert json.load(f)["detect_rate"] == 1.0


def test_traced_run_prints_every_per_layer_metric(traced_twice):
    (done, result, report), _ = traced_twice
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert list(result["metrics"]) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert report["detect_rate"] == 1.0 and report["wrong_share"] == 0.0
    with open(os.path.join(ROOT, report["spans"])) as f:
        spans = json.load(f)
    assert {s[1] for s in spans["spans"]} == set(spans["self_s"])
    assert set(spans["self_s"]) <= set(SPAN_NAMES)


def test_same_seed_repeats_the_counts(traced_twice):
    (_, first, first_report), (_, second, second_report) = traced_twice
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    for name in ("detect_rate", "wrong_share"):
        assert first_report[name] == second_report[name], name


def test_wrong_expected_machine_fails_the_run(tmp_path):
    done, result, report = _run(
        tmp_path, "bugs", 3, 1, 0, "--expect", "LocalDangling=nullness"
    )
    assert done.returncode == 1
    assert not result["correct"] and result["failed"] > 0
    assert report["wrong_share"] > 0
    assert any("expected nullness" in p for p in report["problems"])


def test_seed_changes_pyc_mixes_and_record_replay_draw():
    from bench import programs, pycext

    assert pycext.draw_mixes(1) == pycext.draw_mixes(1)
    assert pycext.draw_mixes(1) != pycext.draw_mixes(2)
    for seed in (1, 2):
        mixes = pycext.draw_mixes(seed)
        for family in pycext.FAMILIES:
            assert sum(m[family] for m in mixes) == sum(pycext.WEIGHTS)
    assert programs.record_replay_draw(1) == programs.record_replay_draw(1)
    assert programs.record_replay_draw(1) != programs.record_replay_draw(2)
    assert len(set(programs.record_replay_draw(2))) == sum(
        programs.RECORD_REPLAY_QUOTA.values()
    )
