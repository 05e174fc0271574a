"""High-level fleet entry points: workloads in, merged reports out.

Each ``fleet_*`` function builds the ordered job list, runs the fleet
dispatcher, and merges through :mod:`repro.fleet.merge`.  The fleet is
the one runner for replay and fuzz work: multi-file ``trace replay``
runs :func:`fleet_replay` and ``fuzz run`` runs :func:`fleet_fuzz`, in
this process at ``workers <= 0``.  A run keeps its state in memory,
and a run that dies is run again.  The pinned answers are
:func:`repro.trace.replay.replay_path` for one file, the violation
stream and event total in the shipped regression corpus's manifest,
and the fuzz report digests in the tests.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.fleet.jobs import fuzz_jobs, replay_jobs
from repro.fleet.merge import (
    MergedReplay,
    merge_fuzz,
    merge_replay,
    violation_stream,
)
from repro.fleet.scheduler import FleetReport, FleetScheduler


def _run(jobs, *, workers: int, **kwargs) -> FleetReport:
    return FleetScheduler(
        jobs, workers=workers, inline=workers <= 0, **kwargs
    ).run()


def fleet_replay(
    paths: List[str],
    *,
    workers: int = 2,
    force: bool = False,
    repeats: int = 1,
    fingerprint: Optional[str] = None,
    **kwargs,
) -> Tuple[MergedReplay, FleetReport]:
    """Replay trace files on the fleet; one job per distinct file.

    ``workers <= 0`` runs the jobs in this process.  Each file's result
    equals :func:`repro.trace.replay.replay_path` on that file.
    """
    jobs = replay_jobs(
        paths, force=force, fingerprint=fingerprint, repeats=repeats
    )
    report = _run(jobs, workers=workers, **kwargs)
    return merge_replay(report), report


def fleet_fuzz(
    seed: int,
    *,
    rounds: int = 3,
    substrate: str = "both",
    segments: Optional[int] = None,
    workers: int = 2,
    **kwargs,
) -> Tuple[Dict[str, object], FleetReport]:
    """Run a fuzz campaign; one job per :func:`fuzz_jobs` slice.

    Per round and substrate: one valid sequence (expected to produce
    zero violations and zero replay drift), then every registered fault
    class injected into its own fresh valid sequence (expected to be
    detected by the tagged machine, again with zero drift).  Returns
    the canonical (deterministic) report and the fleet report.
    """
    jobs = fuzz_jobs(seed, rounds=rounds, substrate=substrate, segments=segments)
    report = _run(jobs, workers=workers, seed=seed, **kwargs)
    return merge_fuzz(report, seed, rounds, substrate), report


def shipped_corpus_dir() -> Optional[str]:
    """The shipped regression corpus, when running from a checkout."""
    for base in (os.getcwd(), os.path.dirname(os.path.abspath(__file__))):
        probe = base
        for _ in range(6):
            candidate = os.path.join(
                probe, "tests", "data", "fuzz_corpus"
            )
            if os.path.isfile(os.path.join(candidate, "manifest.json")):
                return candidate
            parent = os.path.dirname(probe)
            if parent == probe:
                break
            probe = parent
    return None


def fleet_smoke(
    *,
    workers: int = 2,
    corpus_dir: Optional[str] = None,
    **kwargs,
) -> Dict[str, object]:
    """The CI smoke: replay the regression corpus on the fleet and
    verify the merged stream matches the one pinned in its manifest.

    Returns a report dict whose ``ok`` summarizes: every job clean or
    violation (corpus traces *do* re-fire violations), zero crashes or
    hangs, and a merged violation stream and event total equal to the
    manifest's.
    """
    from repro.fuzz.corpus import corpus_baseline

    if corpus_dir is None:
        corpus_dir = shipped_corpus_dir()
    if corpus_dir is None:
        raise FileNotFoundError(
            "no regression corpus found; pass corpus_dir or run from a checkout"
        )
    paths, expected, expected_events = corpus_baseline(corpus_dir)
    merged, report = fleet_replay(paths, workers=workers, **kwargs)
    stream = violation_stream(report)
    identical = stream == expected
    counts = report.counts
    ok = (
        identical
        and counts["crash"] == 0
        and counts["hang"] == 0
        and counts["expired"] == 0
        and merged.event_count == expected_events
    )
    return {
        "ok": ok,
        "workers": workers,
        "traces": len(paths),
        "events": merged.event_count,
        "violations": len(stream),
        "stream_identical": identical,
        "counts": counts,
        "load": report.load_json(),
    }
