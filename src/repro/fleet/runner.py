"""High-level fleet entry points: workloads in, merged reports out.

Each ``fleet_*`` function builds the ordered job list, runs the fleet
dispatcher, and merges through :mod:`repro.fleet.merge`.
The fleet is the one parallel runner.  ``fuzz_run``, ``chaos_run`` and
``build_corpus`` are also the one-process paths their CLI commands run
by default; the parity tests assert the fleet reproduces them byte for
byte.  Replay's baselines are :func:`repro.trace.replay.replay_path`
for one file and, for the shipped regression corpus, the violation
stream and event total pinned in its manifest.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.fleet.jobs import (
    chaos_jobs,
    corpus_jobs,
    fuzz_jobs,
    replay_jobs,
)
from repro.fleet.merge import (
    MergedReplay,
    merge_chaos,
    merge_corpus,
    merge_fuzz,
    merge_replay,
    violation_stream,
)
from repro.fleet.queue import JobQueue
from repro.fleet.scheduler import FleetReport, FleetScheduler


def _run(
    jobs,
    *,
    workers: int,
    seed: int = 0,
    queue_path: Optional[str] = None,
    inline: bool = False,
    sync: str = "eager",
    **kwargs,
) -> FleetReport:
    # ``sync`` is queue policy, not scheduler policy (the scheduler's
    # ``batch`` knob rides through **kwargs); without a queue path the
    # run has no journal and the knob is inert.
    queue = JobQueue(queue_path, sync=sync) if queue_path else None
    try:
        scheduler = FleetScheduler(
            jobs,
            workers=workers,
            seed=seed,
            queue=queue,
            inline=inline or workers <= 0,
            **kwargs,
        )
        return scheduler.run()
    finally:
        if queue is not None:
            queue.close()


def fleet_replay(
    paths: List[str],
    *,
    workers: int = 2,
    force: bool = False,
    repeats: int = 1,
    fingerprint: Optional[str] = None,
    queue_path: Optional[str] = None,
    **kwargs,
) -> Tuple[MergedReplay, FleetReport]:
    """Replay trace files on the fleet; one job per distinct file.

    ``workers <= 0`` runs the jobs in this process.  Each file's result
    equals :func:`repro.trace.replay.replay_path` on that file.
    """
    jobs = replay_jobs(
        paths, force=force, fingerprint=fingerprint, repeats=repeats
    )
    report = _run(jobs, workers=workers, queue_path=queue_path, **kwargs)
    return merge_replay(report), report


def fleet_fuzz(
    seed: int,
    *,
    rounds: int = 3,
    substrate: str = "both",
    segments: Optional[int] = None,
    workers: int = 2,
    queue_path: Optional[str] = None,
    **kwargs,
) -> Tuple[Dict[str, object], FleetReport]:
    """Run a fuzz campaign on the fleet; one job per campaign slice.

    Parity baseline: :func:`repro.fuzz.engine.fuzz_run` — the merged
    report is byte-identical JSON.
    """
    jobs = fuzz_jobs(seed, rounds=rounds, substrate=substrate, segments=segments)
    report = _run(
        jobs, workers=workers, seed=seed, queue_path=queue_path, **kwargs
    )
    return merge_fuzz(report, seed, rounds, substrate), report


def fleet_chaos(
    seed: int,
    *,
    substrate: str = "both",
    rounds: int = 1,
    workers: int = 2,
    queue_path: Optional[str] = None,
    **kwargs,
) -> Tuple[Dict[str, object], FleetReport]:
    """Run chaos rounds on the fleet; one job per substrate.

    Parity baseline: :func:`repro.resilience.chaos.chaos_run`.
    """
    jobs = chaos_jobs(seed, substrate=substrate, rounds=rounds)
    report = _run(
        jobs, workers=workers, seed=seed, queue_path=queue_path, **kwargs
    )
    return merge_chaos(report, substrate), report


def fleet_corpus(
    out_dir: str,
    seed: int,
    *,
    substrate: str = "both",
    segments: Optional[int] = None,
    workers: int = 2,
    queue_path: Optional[str] = None,
    **kwargs,
) -> Tuple[Dict[str, object], FleetReport]:
    """Build the regression corpus on the fleet; one job per fault.

    Parity baseline: :func:`repro.fuzz.corpus.build_corpus` — identical
    manifest and trace files.
    """
    jobs = corpus_jobs(seed, substrate=substrate, segments=segments)
    report = _run(
        jobs, workers=workers, seed=seed, queue_path=queue_path, **kwargs
    )
    return merge_corpus(report, out_dir, seed), report


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
    queue_path: Optional[str] = None,
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
    merged, report = fleet_replay(
        paths, workers=workers, queue_path=queue_path, **kwargs
    )
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
